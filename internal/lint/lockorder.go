package lint

// lockorder builds the per-package mutex acquisition graph of the packages
// whose locks a request crosses (internal/simnet, internal/proxynet,
// internal/metrics, internal/trace, internal/dnsserver, internal/origin) and
// diagnoses two hazards:
//
//  1. Acquisition cycles: if one code path locks A then B and another
//     locks B then A, the two can deadlock. Edges come from a forward
//     may-held dataflow over each function's CFG (held × acquired) plus
//     transitive may-acquire summaries of same-package static callees,
//     iterated to fixpoint.
//  2. Dynamic calls under a lock: a call through an interface or function
//     value while holding a tracked mutex escapes the statically-buildable
//     graph entirely — whatever it locks is invisible. Hoist the call out
//     of the critical section or waive it with the reason the callee
//     cannot lock.
//
// Locks are named "<Type>.<field>" (or the variable name for non-field
// mutexes). A lock the function itself released earlier (unlock-then-
// relock, as in ring.pumpOrWait) is excluded from its summary so callers
// holding it do not see a false self-edge. sync.Cond.Wait releases and
// reacquires its locker atomically and is modeled as a no-op.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

func lockorderScoped(relFile string) bool {
	return strings.HasPrefix(relFile, "internal/simnet/") ||
		strings.HasPrefix(relFile, "internal/proxynet/") ||
		strings.HasPrefix(relFile, "internal/metrics/") ||
		strings.HasPrefix(relFile, "internal/trace/") ||
		strings.HasPrefix(relFile, "internal/dnsserver/") ||
		strings.HasPrefix(relFile, "internal/origin/") ||
		strings.Contains(relFile, "testdata/src/lockorder/")
}

// lockState is the forward-dataflow fact: the may-held set and the
// released-since-entry set (for summary exclusion). States are immutable;
// transfer copies.
type lockState struct {
	held     map[string]bool
	released map[string]bool
}

func (s lockState) clone() lockState {
	c := lockState{held: make(map[string]bool, len(s.held)), released: make(map[string]bool, len(s.released))}
	for k := range s.held {
		c.held[k] = true
	}
	for k := range s.released {
		c.released[k] = true
	}
	return c
}

// lockEdge is one "acquired to while holding from" observation.
type lockEdge struct {
	from, to string
	pos      token.Pos
}

// runLockOrder analyzes one package.
func runLockOrder(p *Pass) []Diagnostic {
	var roots []lockRoot
	inScope := false
	for _, f := range p.Files {
		if !lockorderScoped(p.FileRel(f)) {
			continue
		}
		inScope = true
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			roots = append(roots, lockRoot{body: fd.Body})
			// Closures run on their own schedule (timer fires, pool
			// prepare hooks); analyze each as an independent root.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					roots = append(roots, lockRoot{body: lit.Body})
				}
				return true
			})
		}
	}
	if !inScope {
		return nil
	}
	la := &lockAnalysis{pass: p, graph: NewCallGraph(p), sums: make(map[*ast.BlockStmt]map[string]bool)}
	// May-acquire summaries to fixpoint: a summary can grow while callees'
	// summaries grow, so iterate until stable.
	for changed := true; changed; {
		changed = false
		for _, r := range roots {
			sum := la.summarize(r.body)
			if !sameSet(la.sums[r.body], sum) {
				la.sums[r.body] = sum
				changed = true
			}
		}
	}
	var ds []Diagnostic
	for _, r := range roots {
		ds = append(ds, la.report(r.body)...)
	}
	ds = append(ds, la.cycles()...)
	return ds
}

type lockRoot struct {
	body *ast.BlockStmt
}

type lockAnalysis struct {
	pass  *Pass
	graph *CallGraph
	// sums maps a function body to the locks it (or its same-package
	// callees) may acquire without having released them first.
	sums map[*ast.BlockStmt]map[string]bool
	// edges is the package's acquisition graph; first observation of each
	// (from, to) pair wins, so positions are deterministic given file
	// order.
	edges  []lockEdge
	edgeAt map[string]bool
	// dyn collects the dynamic-call-under-lock diagnostics.
	dyn []Diagnostic
}

// solve runs the held/released dataflow over one body and returns the CFG
// with per-block entry states.
func (la *lockAnalysis) solve(body *ast.BlockStmt) (*CFG, []lockState) {
	c := BuildCFG(body)
	in := Forward(c,
		func() lockState {
			return lockState{held: map[string]bool{}, released: map[string]bool{}}
		},
		func(blk *Block, s lockState) lockState {
			out := s.clone()
			la.walkBlock(blk, &out, nil)
			return out
		},
		func(a, b lockState) (lockState, bool) {
			changed := false
			for k := range b.held {
				if !a.held[k] {
					if !changed {
						a = a.clone()
						changed = true
					}
					a.held[k] = true
				}
			}
			for k := range b.released {
				if !a.released[k] {
					if !changed {
						a = a.clone()
						changed = true
					}
					a.released[k] = true
				}
			}
			return a, changed
		})
	return c, in
}

// lockEvent is invoked by walkBlock at each interesting point.
type lockEvent struct {
	// acquire is non-"" when a tracked lock is acquired at pos.
	acquire string
	// callee is the summary set of a static same-package call.
	callee map[string]bool
	// dynamic describes a call the graph cannot see through.
	dynamic string
	pos     token.Pos
}

// walkBlock applies one block's lock effects to s in source order,
// reporting events when report is non-nil.
func (la *lockAnalysis) walkBlock(blk *Block, s *lockState, report func(lockEvent, lockState)) {
	for _, n := range blk.Nodes {
		ast.Inspect(n, func(sub ast.Node) bool {
			switch sub := sub.(type) {
			case *ast.FuncLit:
				// Closure bodies run later; they are analyzed as roots.
				return false
			case *ast.CallExpr:
				key, op := la.lockOp(sub)
				switch op {
				case lockAcquire:
					if report != nil {
						report(lockEvent{acquire: key, pos: sub.Pos()}, *s)
					}
					s.held[key] = true
					return true
				case lockRelease:
					delete(s.held, key)
					s.released[key] = true
					return true
				case lockNeutral:
					return true
				}
				if fd := la.graph.DeclOf(sub); fd != nil {
					if report != nil {
						report(lockEvent{callee: la.sums[fd.Body], pos: sub.Pos()}, *s)
					}
					return true
				}
				if desc, ok := la.dynamicCallee(sub); ok && report != nil {
					report(lockEvent{dynamic: desc, pos: sub.Pos()}, *s)
				}
			}
			return true
		})
	}
}

// summarize computes the may-acquire set of one body: every tracked lock
// acquired at a point where the function had not already released it,
// unioned with the current summaries of its static callees.
func (la *lockAnalysis) summarize(body *ast.BlockStmt) map[string]bool {
	c, in := la.solve(body)
	sum := make(map[string]bool)
	for _, blk := range c.Reachable() {
		s := in[blk.Index].clone()
		if s.held == nil {
			continue
		}
		la.walkBlock(blk, &s, func(ev lockEvent, at lockState) {
			if ev.acquire != "" && !at.released[ev.acquire] {
				sum[ev.acquire] = true
			}
			for k := range ev.callee {
				sum[k] = true
			}
		})
	}
	return sum
}

// report replays one body with final dataflow facts, recording acquisition
// edges and dynamic-call diagnostics.
func (la *lockAnalysis) report(body *ast.BlockStmt) []Diagnostic {
	c, in := la.solve(body)
	var ds []Diagnostic
	for _, blk := range c.Reachable() {
		s := in[blk.Index].clone()
		if s.held == nil {
			continue
		}
		la.walkBlock(blk, &s, func(ev lockEvent, at lockState) {
			held := sortedKeys(at.held)
			switch {
			case ev.acquire != "":
				for _, h := range held {
					la.addEdge(h, ev.acquire, ev.pos)
				}
			case ev.dynamic != "":
				if len(held) > 0 {
					ds = append(ds, la.pass.Diag(ev.pos,
						"call through %s while holding %s; the acquisition graph cannot see past it — hoist it out of the critical section or waive with the reason it cannot lock",
						ev.dynamic, strings.Join(held, ", ")))
				}
			case ev.callee != nil:
				for _, h := range held {
					for _, k := range sortedKeys(ev.callee) {
						la.addEdge(h, k, ev.pos)
					}
				}
			}
		})
	}
	return ds
}

func (la *lockAnalysis) addEdge(from, to string, pos token.Pos) {
	if from == to {
		// Same-key re-acquisition: either a recursive self-deadlock or two
		// instances of one type locked in sequence (ring pairs). The graph
		// cannot tell instances apart, so record it as a cycle-free note
		// only when distinct; skip self-edges to avoid instance noise.
		return
	}
	if la.edgeAt == nil {
		la.edgeAt = make(map[string]bool)
	}
	k := from + "\x00" + to
	if la.edgeAt[k] {
		return
	}
	la.edgeAt[k] = true
	la.edges = append(la.edges, lockEdge{from: from, to: to, pos: pos})
}

// cycles reports every edge that participates in an acquisition cycle.
func (la *lockAnalysis) cycles() []Diagnostic {
	adj := make(map[string][]string)
	for _, e := range la.edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	var ds []Diagnostic
	for _, e := range la.edges {
		if path := lockPath(adj, e.to, e.from); path != nil {
			cycle := append([]string{e.from}, path...)
			ds = append(ds, la.pass.Diag(e.pos,
				"lock acquisition cycle: %s; acquiring %s while holding %s can deadlock against the reverse order",
				strings.Join(cycle, " → "), e.to, e.from))
		}
	}
	return ds
}

// lockPath finds a path from src to dst in the acquisition graph (BFS,
// deterministic order), returning the node sequence src..dst, or nil.
func lockPath(adj map[string][]string, src, dst string) []string {
	prev := map[string]string{src: ""}
	queue := []string{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == dst {
			var path []string
			for at := dst; at != ""; at = prev[at] {
				path = append([]string{at}, path...)
				if at == src {
					break
				}
			}
			return path
		}
		next := append([]string(nil), adj[n]...)
		sort.Strings(next)
		for _, m := range next {
			if _, seen := prev[m]; !seen {
				prev[m] = n
				queue = append(queue, m)
			}
		}
	}
	return nil
}

const (
	lockNone = iota
	lockAcquire
	lockRelease
	lockNeutral
)

// lockOp classifies a call as a tracked lock operation. Cond.Wait is
// neutral: it atomically releases and reacquires its locker.
func (la *lockAnalysis) lockOp(call *ast.CallExpr) (string, int) {
	p := la.pass
	fn := p.PkgFunc(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", lockNone
	}
	sig, _ := fn.Type().(*types.Signature)
	if recvName(sig) == "Cond" && fn.Name() == "Wait" {
		return "", lockNeutral
	}
	var op int
	switch fn.Name() {
	case "Lock", "RLock":
		op = lockAcquire
	case "Unlock", "RUnlock":
		op = lockRelease
	default:
		return "", lockNone
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", lockNone
	}
	key := la.lockKey(ast.Unparen(sel.X))
	if key == "" {
		return "", lockNeutral
	}
	return key, op
}

// lockKey names a mutex expression: "<OwnerType>.<field>" for struct
// fields, the variable name otherwise, "" when unresolvable.
func (la *lockAnalysis) lockKey(x ast.Expr) string {
	p := la.pass
	switch x := x.(type) {
	case *ast.SelectorExpr:
		if selx, ok := p.Info.Selections[x]; ok {
			recv := selx.Recv()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			if named, ok := recv.(*types.Named); ok {
				return named.Obj().Name() + "." + x.Sel.Name
			}
			return x.Sel.Name
		}
		// Qualified package-level var: pkg.mu.
		if v, ok := p.Info.Uses[x.Sel].(*types.Var); ok {
			return v.Name()
		}
	case *ast.Ident:
		if v, ok := identObj(p, x).(*types.Var); ok {
			return v.Name()
		}
	}
	return ""
}

// dynamicCallee reports whether call is opaque to the acquisition graph: a
// function-value call or an interface-method call. Builtins, conversions,
// and concrete functions (same- or cross-package) are transparent enough.
func (la *lockAnalysis) dynamicCallee(call *ast.CallExpr) (string, bool) {
	p := la.pass
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		return "", false // conversion
	}
	fn := p.PkgFunc(call)
	if fn == nil {
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if _, ok := p.Info.Uses[fun].(*types.Builtin); ok {
				return "", false
			}
			if fun.Name == "min" || fun.Name == "max" {
				return "", false
			}
			return "func value " + fun.Name, true
		case *ast.SelectorExpr:
			return "func value " + exprText(fun), true
		case *ast.FuncLit:
			return "", false // literal called in place: body visible... but skipped; treat as dynamic
		}
		return "dynamic call", true
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		return fmt.Sprintf("interface method %s.%s", recvName(sig), fn.Name()), true
	}
	return "", false
}

// exprText renders a selector chain for messages (x.y.z).
func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	}
	return "expr"
}

func sortedKeys(m map[string]bool) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
