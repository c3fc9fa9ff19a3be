package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// runSpanEnd enforces span hygiene: the result of every trace.Tracer
// StartRoot/StartChild call must be ended in the starting function — an
// .End() call or defer on the assigned variable — or visibly handed off
// (returned, passed as an argument, stored into a structure). A span that
// is discarded or only decorated leaks an open span from the bounded
// collector's point of view and silently truncates the request's trace
// tree.
//
// The trace package itself is exempt: it is the implementation.
func runSpanEnd(p *Pass) []Diagnostic {
	if strings.HasSuffix(p.Path, "internal/trace") {
		return nil
	}
	var ds []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ds = append(ds, spanEndFunc(p, fd)...)
		}
	}
	return ds
}

// isSpanStart reports whether call statically resolves to a span-producing
// trace.Tracer method.
func isSpanStart(p *Pass, call *ast.CallExpr) (*types.Func, bool) {
	fn := p.PkgFunc(call)
	if fn == nil || (fn.Name() != "StartRoot" && fn.Name() != "StartChild") {
		return nil, false
	}
	if fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/trace") {
		return nil, false
	}
	return fn, true
}

// spanEndFunc checks every span started inside fd. Closures count as part
// of the enclosing function: a span ended inside a nested func literal that
// captures it is ended as far as this analyzer is concerned.
func spanEndFunc(p *Pass, fd *ast.FuncDecl) []Diagnostic {
	var ds []Diagnostic
	walkParents(fd.Body, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		fn, ok := isSpanStart(p, call)
		if !ok {
			return
		}
		label := "Tracer." + fn.Name()
		switch par := parent(stack).(type) {
		case *ast.ExprStmt:
			ds = append(ds, p.Diag(call.Pos(), "result of %s discarded; the span is never ended", label))
		case *ast.DeferStmt:
			if par.Call == call {
				ds = append(ds, p.Diag(call.Pos(), "result of deferred %s discarded; the span is never ended", label))
			}
		case *ast.GoStmt:
			if par.Call == call {
				ds = append(ds, p.Diag(call.Pos(), "result of %s in go statement discarded; the span is never ended", label))
			}
		case *ast.AssignStmt:
			id := assignedIdent(par, call)
			ds = append(ds, checkSpanVar(p, fd, call, label, id)...)
		case *ast.ValueSpec:
			var id *ast.Ident
			for i, v := range par.Values {
				if v == call && i < len(par.Names) {
					id = par.Names[i]
				}
			}
			ds = append(ds, checkSpanVar(p, fd, call, label, id)...)
		default:
			// Returned, passed as an argument, or stored into a composite:
			// ownership visibly moves to the receiver, which the analyzer
			// trusts to end it.
		}
	})
	return ds
}

// assignedIdent returns the LHS identifier matching call on the RHS of an
// assignment (nil when the target is not a plain identifier).
func assignedIdent(as *ast.AssignStmt, call *ast.CallExpr) *ast.Ident {
	for i, rhs := range as.Rhs {
		if rhs == call && i < len(as.Lhs) {
			id, _ := as.Lhs[i].(*ast.Ident)
			return id
		}
	}
	return nil
}

// checkSpanVar verifies the span variable is ended or escapes within fd.
func checkSpanVar(p *Pass, fd *ast.FuncDecl, call *ast.CallExpr, label string, id *ast.Ident) []Diagnostic {
	if id == nil {
		return nil // assigned through a non-identifier lvalue: stored, so handed off
	}
	if id.Name == "_" {
		return []Diagnostic{p.Diag(call.Pos(), "result of %s assigned to _; the span is never ended", label)}
	}
	obj := identObj(p, id)
	if obj == nil {
		return nil // type-check hole; stay quiet rather than guess
	}
	if spanEndedOrEscapes(p, fd, obj) {
		return nil
	}
	return []Diagnostic{p.Diag(call.Pos(),
		"span %q from %s is never ended in %s; call or defer %s.End() on every path, or hand the span off",
		id.Name, label, fd.Name.Name, id.Name)}
}

// spanEndedOrEscapes scans fd for a use of obj that either ends the span
// (x.End anywhere, including deferred or inside a captured closure) or
// moves ownership out of the function (any use that is not a method call
// or field access on the variable itself).
func spanEndedOrEscapes(p *Pass, fd *ast.FuncDecl, obj any) bool {
	found := false
	walkParents(fd.Body, func(n ast.Node, stack []ast.Node) {
		if found {
			return
		}
		id, ok := n.(*ast.Ident)
		if !ok || p.Info.Uses[id] != obj {
			return
		}
		switch par := parent(stack).(type) {
		case *ast.SelectorExpr:
			if par.X == id && par.Sel.Name == "End" {
				found = true
			}
			// Other selections (SetError, SetAttrs, Context) neither end
			// the span nor move it.
		case *ast.AssignStmt:
			for _, lhs := range par.Lhs {
				if lhs == id {
					return // reassignment target, not a use of the value
				}
			}
			found = true // aliased into another variable
		default:
			found = true // returned, passed, stored: handed off
		}
	})
	return found
}
