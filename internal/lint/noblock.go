package lint

// noblock enforces the run-to-completion contract of the simnet event core:
// callbacks registered on the fabric's task queue (taskQueue.push), as
// stream readiness handlers (Stream.SetNotify) or as the drain a readiness
// handler's Kicker serialises (Kicker.Kick) execute inline on whichever
// goroutine next pumps the queue or fires the notify, so anything that
// blocks in one — a channel operation, a mutex, a blocking
// Stream.Read/Write, an io.Copy over a net.Conn — parks the entire
// scheduler. Only the non-blocking readiness APIs (TryRead, TryWrite,
// SetNotify) are legal inside them. The analyzer finds every registration
// site, then chases same-package static calls and function literals from
// the handler body (CFG-reachable code only, via ReachWalk) looking for
// blocking operations.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// noblockScoped limits the analyzer to the event-core packages — the fabric,
// the proxy chain's splice and the world's readiness handlers — plus its own
// fixtures; registration APIs elsewhere (none today) are out of contract.
func noblockScoped(relFile string) bool {
	return strings.HasPrefix(relFile, "internal/simnet/") ||
		strings.HasPrefix(relFile, "internal/proxynet/") ||
		strings.HasPrefix(relFile, "internal/origin/") ||
		strings.Contains(relFile, "testdata/src/noblock/")
}

// noblockRoots names each registration method by the receiver type that
// declares it: a callback handed to one runs on the event core.
var noblockRoots = map[string]string{
	"SetNotify": "Stream",
	"push":      "taskQueue",
	"Kick":      "Kicker",
}

// runNoBlock locates handler registrations and diagnoses blocking
// operations reachable from their bodies.
func runNoBlock(p *Pass) []Diagnostic {
	g := NewCallGraph(p)
	locals := make(map[*types.Var]ast.Expr) // each local's initial value
	var ds []Diagnostic
	// reported dedupes sinks reachable from more than one registration:
	// the first (file-order) root wins.
	reported := make(map[token.Pos]bool)
	for _, f := range p.Files {
		if !noblockScoped(p.FileRel(f)) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			// Source order puts a local's definition before its uses.
			if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.DEFINE && len(as.Lhs) == len(as.Rhs) {
				for i, lhs := range as.Lhs {
					if v, ok := p.Info.Defs[lhs.(*ast.Ident)].(*types.Var); ok {
						locals[v] = as.Rhs[i]
					}
				}
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			body := noblockRoot(p, g, locals, call)
			if body == nil {
				return true
			}
			file, line, _ := p.Rel(call.Pos())
			g.ReachWalk(body, func(n ast.Node, depth int) bool {
				if _, ok := n.(*ast.GoStmt); ok {
					// A spawned goroutine may block; nogo already demands a
					// waiver for its existence.
					return false
				}
				kind, pos, ok := noblockSink(p, n)
				if !ok || reported[pos] {
					return true
				}
				reported[pos] = true
				ds = append(ds, p.Diag(pos,
					"%s inside a run-to-completion callback (registered at %s:%d); only TryRead/TryWrite/SetNotify readiness APIs may run here",
					kind, file, line))
				return true
			})
			return true
		})
	}
	return ds
}

// noblockRoot returns the body of the callback call registers to run to
// completion — through Stream.SetNotify(fn), taskQueue.push(fn) or
// Kicker.Kick(fn) — or nil. The method is known by the receiver of the
// method called, so a Kick promoted through an embedded Kicker counts.
// Dynamic callbacks (interface-valued, cross-package) resolve to nothing
// and are skipped: the walk is intra-package by design.
func noblockRoot(p *Pass, g *CallGraph, locals map[*types.Var]ast.Expr, call *ast.CallExpr) *ast.BlockStmt {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	method, ok := p.Info.Selections[sel]
	if !ok {
		return nil
	}
	if sig, _ := method.Obj().Type().(*types.Signature); noblockRoots[sel.Sel.Name] != recvName(sig) {
		return nil
	}
	return callbackBody(p, g, locals, call.Args[0])
}

// callbackBody resolves a callback to the body that runs, or nil: a
// function literal's, or the declaration's of a function or method named
// directly, as a method value, or through a local initialised from one
// (kick := s.kick).
func callbackBody(p *Pass, g *CallGraph, locals map[*types.Var]ast.Expr, fn ast.Expr) *ast.BlockStmt {
	switch fn := ast.Unparen(fn).(type) {
	case *ast.FuncLit:
		return fn.Body
	case *ast.SelectorExpr:
		return callbackBody(p, g, locals, fn.Sel)
	case *ast.Ident:
		switch obj := p.Info.Uses[fn].(type) {
		case *types.Func:
			if fd := g.decls[obj]; fd != nil {
				return fd.Body
			}
		case *types.Var:
			if init, ok := locals[obj]; ok {
				return callbackBody(p, g, locals, init)
			}
		}
	}
	return nil
}

// recvTypeName returns the name of the named type (pointers stripped) of an
// expression, or "".
func recvTypeName(p *Pass, x ast.Expr) string {
	tv, ok := p.Info.Types[x]
	if !ok || tv.Type == nil {
		return ""
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// noblockSink classifies one node as a blocking operation.
func noblockSink(p *Pass, n ast.Node) (kind string, pos token.Pos, ok bool) {
	switch n := n.(type) {
	case *ast.SendStmt:
		return "channel send", n.Pos(), true
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return "channel receive", n.Pos(), true
		}
	case *ast.CallExpr:
		fn := p.PkgFunc(n)
		if fn == nil || fn.Pkg() == nil {
			return "", 0, false
		}
		name := fn.Name()
		sig, _ := fn.Type().(*types.Signature)
		switch fn.Pkg().Path() {
		case "sync":
			switch name {
			case "Lock", "RLock":
				return "mutex " + name, n.Pos(), true
			case "Wait":
				return recvName(sig) + ".Wait", n.Pos(), true
			}
			return "", 0, false
		case "time":
			if name == "Sleep" {
				return "time.Sleep", n.Pos(), true
			}
			return "", 0, false
		case "io":
			switch name {
			case "Copy", "CopyBuffer", "CopyN", "ReadFull", "ReadAll":
				return "io." + name, n.Pos(), true
			}
		}
		if name != "Read" && name != "Write" {
			return "", 0, false
		}
		if sig == nil || sig.Recv() == nil {
			return "", 0, false
		}
		rt := sig.Recv().Type()
		if types.IsInterface(rt) {
			// net.Conn, io.Reader, io.Writer, ... — any interface
			// Read/Write may block on a fabric stream underneath.
			return "interface " + recvName(sig) + "." + name, n.Pos(), true
		}
		if rn := recvName(sig); rn == "Stream" {
			return "Stream." + name + " (use Try" + name + ")", n.Pos(), true
		}
	}
	return "", 0, false
}

// recvName names a method's receiver type (pointers stripped), or "func"
// when there is none.
func recvName(sig *types.Signature) string {
	if sig == nil || sig.Recv() == nil {
		return "func"
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return "func"
}
