package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// poolPair describes one Get/Put pair the analyzer enforces. pkgSuffix
// constrains the callee's package by import-path suffix; empty means the
// pair is package-local (unexported helpers callable only where defined).
// owned marks a pair whose Get is kept by a structure and returned when that
// structure's lifetime ends, in another function of the package.
type poolPair struct {
	get, put  string
	pkgSuffix string
	owned     bool
}

// poolPairs are the repository's pooled-buffer protocols (PR 3). The rule
// they encode: pool only where the lifetime ends in-function, so every Get
// has a syntactically findable Put. The owned pairs are simnet's, whose ring
// storage and connection pairs live as long as a connection does: for those
// the Put must be findable in the package.
var poolPairs = []poolPair{
	{get: "GetReader", put: "PutReader", pkgSuffix: "internal/httpwire"},
	{get: "getWriter", put: "putWriter"},
	{get: "getCopyBuf", put: "putCopyBuf"},
	{get: "getQueryBuf", put: "putQueryBuf"},
	{get: "takeBuf", put: "recycleBuf", owned: true},
	{get: "takePair", put: "recyclePair", owned: true},
}

// runPoolPair verifies that every pooled Get is held in a local variable
// and returned to its pool by the matching Put (called or deferred) in the
// same function. Escaping the buffer does not count: PR 3's pooling rule is
// that lifetimes end in-function, so a Get whose Put lives elsewhere is a
// leak by convention even if some callee returns it. An owned pair's Put may
// be anywhere in the package, but has to be somewhere.
func runPoolPair(p *Pass) []Diagnostic {
	var ds []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ds = append(ds, poolPairFunc(p, fd)...)
		}
	}
	return append(ds, ownedPairs(p)...)
}

// ownedPairs reports, for each owned pair, the package's first call of the
// Get when the package never calls the Put: what is taken is never returned,
// and the pool behind the pair is an allocator with extra steps.
func ownedPairs(p *Pass) []Diagnostic {
	var ds []Diagnostic
	for _, pair := range poolPairs {
		if !pair.owned {
			continue
		}
		var firstGet *ast.CallExpr
		put := false
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := p.PkgFunc(call)
				if fn == nil || !pairMatchesPkg(p, pair, fn) {
					return true
				}
				switch fn.Name() {
				case pair.get:
					if firstGet == nil {
						firstGet = call
					}
				case pair.put:
					put = true
				}
				return true
			})
		}
		if firstGet != nil && !put {
			ds = append(ds, p.Diag(firstGet.Pos(),
				"%s is called but %s never is in this package; what the owner takes it must give back when its lifetime ends",
				pair.get, pair.put))
		}
	}
	return ds
}

// matchPoolFunc returns the pool pair when fn is one of the Get functions.
func matchPoolFunc(p *Pass, fn *types.Func) (poolPair, bool) {
	for _, pair := range poolPairs {
		if fn.Name() != pair.get {
			continue
		}
		if pairMatchesPkg(p, pair, fn) {
			return pair, true
		}
	}
	return poolPair{}, false
}

func pairMatchesPkg(p *Pass, pair poolPair, fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	if pair.pkgSuffix != "" {
		return strings.HasSuffix(fn.Pkg().Path(), pair.pkgSuffix)
	}
	return fn.Pkg() == p.Pkg // package-local helper
}

// poolPairFunc checks one function. The Get inside the pool package's own
// wrapper (e.g. GetReader's body) calls sync.Pool directly, not the
// wrapper, so the implementation does not self-flag.
func poolPairFunc(p *Pass, fd *ast.FuncDecl) []Diagnostic {
	var ds []Diagnostic
	walkParents(fd.Body, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		fn := p.PkgFunc(call)
		if fn == nil {
			return
		}
		pair, ok := matchPoolFunc(p, fn)
		if !ok || pair.owned {
			return
		}
		var id *ast.Ident
		switch par := parent(stack).(type) {
		case *ast.AssignStmt:
			id = assignedIdent(par, call)
		case *ast.ValueSpec:
			for i, v := range par.Values {
				if v == call && i < len(par.Names) {
					id = par.Names[i]
				}
			}
		}
		if id == nil || id.Name == "_" {
			ds = append(ds, p.Diag(call.Pos(),
				"pooled buffer from %s must be held in a local and returned with %s in this function",
				pair.get, pair.put))
			return
		}
		obj := identObj(p, id)
		if obj == nil {
			return // type-check hole; stay quiet rather than guess
		}
		if !putCallFound(p, fd, pair, obj) {
			ds = append(ds, p.Diag(call.Pos(),
				"%q from %s has no matching %s in %s; pool only where the lifetime ends in-function",
				id.Name, pair.get, pair.put, fd.Name.Name))
		}
	})
	return ds
}

// putCallFound reports whether fd contains a call (plain or deferred,
// including inside closures) to the pair's Put with obj among the
// arguments.
func putCallFound(p *Pass, fd *ast.FuncDecl, pair poolPair, obj any) bool {
	found := false
	walkParents(fd.Body, func(n ast.Node, stack []ast.Node) {
		if found {
			return
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		fn := p.PkgFunc(call)
		if fn == nil || fn.Name() != pair.put || !pairMatchesPkg(p, pair, fn) {
			return
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && p.Info.Uses[id] == obj {
				found = true
				return
			}
		}
	})
	return found
}
