// Command lockcensus counts, per measurement session, how often a crawl
// executes each call that takes a lock or does an atomic read-modify-write:
// free alone, a cache-line transfer each once a second worker shares the
// world. It builds cmd/tft with atomic block counters (-cover), runs it with
// the arguments given and divides each such call's count by the sessions run.
// Not a gate stage (3× slower): it produces DESIGN §6's shared-state table.
//
//	go run ./scripts/lockcensus -experiment dns -scale 0.0375 -seed 7 -workers 2
package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"github.com/tftproject/tft/internal/lint"
)

const shared, striped, private = "shared by every worker", "striped by key or by caller", "per connection or span"

// groupOf says whose locks and counters not every worker shares (DESIGN §6):
// by the type the field is on, or by "Type.field[]" for one element of it.
var groupOf = map[string]string{
	"cell": striped, "sessionStripe": striped, "queryLog": striped,
	"requestLog": striped, "labeledShard": striped, "shardCell": striped,
	"ring": private, "span": private, "bufferedConn": private, "pair": private,
}

// counted are sync's and sync/atomic's methods that write to a shared line.
var counted = map[string]bool{"sync.Lock": true, "sync.RLock": true, "sync/atomic.Add": true, "sync/atomic.Swap": true,
	"sync/atomic.CompareAndSwap": true, "sync/atomic.And": true, "sync/atomic.Or": true}

// site is one such call: the "Type.field" it is on, where, how often.
type site struct {
	on, at    string
	line, col int
	n         float64 // executions per session
}

func main() {
	dir, err := os.MkdirTemp("", "lockcensus") // the instrumented binary and what it writes
	check := func(err error, context ...any) {
		if err != nil {
			fmt.Fprintln(os.Stderr, append([]any{"lockcensus:", err}, context...)...)
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}
	lines := func(path string) []string {
		data, err := os.ReadFile(path)
		check(err)
		return strings.Split(string(data), "\n")
	}
	check(err)
	defer os.RemoveAll(dir)
	bin, manifest, profile := filepath.Join(dir, "tft"), filepath.Join(dir, "manifest.jsonl"), filepath.Join(dir, "cover.txt")
	crawl := exec.Command(bin, append(os.Args[1:], "-progress-jsonl", manifest)...)
	crawl.Env = append(os.Environ(), "GOCOVERDIR="+dir)
	for _, cmd := range []*exec.Cmd{
		exec.Command("go", "build", "-cover", "-covermode=atomic", "-coverpkg=./...", "-o", bin, "./cmd/tft"),
		crawl,
		exec.Command("go", "tool", "covdata", "textfmt", "-i="+dir, "-o="+profile),
	} {
		out, err := cmd.CombinedOutput()
		check(err, cmd.Args, string(out))
	}
	var sessions float64
	for _, line := range lines(manifest) {
		var m map[string]any
		if json.Unmarshal([]byte(line), &m) == nil && m["type"] == "manifest" {
			n, _ := m["sessions"].(float64)
			sessions += n
		}
	}
	sites, module := findSites(check)
	groups, totals := map[string][]*site{}, map[string]float64{}
	var all, trace float64 // every group's total, and internal/trace's share of it
	for _, line := range lines(profile) {
		// "import/path/file.go:line.col,line.col statements count", the blocks disjoint.
		var l0, c0, l1, c1, stmts int
		var count float64
		file, block, _ := strings.Cut(strings.TrimPrefix(line, module+"/"), ":")
		if _, err := fmt.Sscanf(block, "%d.%d,%d.%d %d %g", &l0, &c0, &l1, &c1, &stmts, &count); err != nil || count < 0.005*sessions {
			continue
		}
		for _, s := range sites[file] {
			if (s.line > l0 || s.line == l0 && s.col >= c0) && (s.line < l1 || s.line == l1 && s.col < c1) {
				group := cmp.Or(groupOf[s.on], groupOf[strings.Split(s.on, ".")[0]], shared)
				s.n = count / sessions
				groups[group], totals[group] = append(groups[group], s), totals[group]+s.n
				all += s.n
				if strings.HasPrefix(file, "internal/trace/") {
					trace += s.n
				}
			}
		}
	}
	fmt.Printf("tft %s: %.0f sessions; executions per session\n", strings.Join(os.Args[1:], " "), sessions)
	for _, group := range []string{shared, striped, private} {
		list := groups[group]
		sort.Slice(list, func(i, j int) bool { return list[i].n > list[j].n || list[i].n == list[j].n && list[i].at < list[j].at })
		fmt.Printf("\n%s: %.1f\n", group, totals[group])
		for _, s := range list {
			fmt.Printf("%8.2f  %-24s %s\n", s.n, s.on, s.at)
		}
	}
	fmt.Printf("\nall: %.1f\noutside internal/trace: %.1f\n", all, all-trace)
}

// findSites type-checks every package of the module and returns its counted
// calls by file, relative to the module root, and the module's path.
func findSites(check func(error, ...any)) (map[string][]*site, string) {
	root, _ := filepath.Abs(".")
	loader, err := lint.NewLoader(root)
	check(err)
	dirs, err := lint.Expand(root, []string{"./..."})
	check(err)
	sites := map[string][]*site{}
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		check(err)
		in := ""
		inspect := func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok {
				in = fd.Name.Name
			}
			sel, _ := n.(*ast.SelectorExpr)
			if sel == nil {
				return true
			}
			if fn, _ := pkg.Info.Uses[sel.Sel].(*types.Func); fn != nil && fn.Pkg() != nil && counted[fn.Pkg().Path()+"."+fn.Name()] {
				on, x, elem := types.ExprString(sel.X), sel.X, "" // a variable, unless it is a field of something
				if ix, ok := x.(*ast.IndexExpr); ok {
					x, elem = ix.X, "[]" // or one element of a field
				}
				if field, ok := x.(*ast.SelectorExpr); ok {
					owner := types.TypeString(pkg.Info.TypeOf(field.X), func(*types.Package) string { return "" })
					on = strings.TrimPrefix(owner, "*") + "." + field.Sel.Name + elem
				}
				p := loader.Fset.Position(sel.Pos())
				file := filepath.ToSlash(filepath.Join(pkg.RelDir, filepath.Base(p.Filename)))
				sites[file] = append(sites[file], &site{on: on, at: fmt.Sprintf("%s:%d in %s", file, p.Line, in), line: p.Line, col: p.Column})
			}
			return true
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, inspect)
		}
	}
	return sites, loader.Module
}
