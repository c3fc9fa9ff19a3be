// Command cpufold folds a CPU or allocation profile by layer: every sample
// goes to the innermost package of this repository on its stack, or, when
// the sample is the garbage collector's or the stack has no repository
// frame, to runtime GC, the runtime scheduler or "other". It reads the
// output of `go tool pprof -traces` and prints a Markdown table, largest
// layer first: DESIGN §6's by-layer CPU and allocation tables. A CPU
// profile sums sample time; any other (`-sample_index=alloc_objects`) sums
// sample counts.
//
//	go test -run=NONE -bench='HTTPExperimentRun$' -benchtime=150x -cpuprofile cpu.prof .
//	go tool pprof -traces cpu.prof | go run ./scripts/cpufold
//	go test -run=NONE -bench='HTTPExperimentRun$' -benchtime=150x -memprofile mem.prof .
//	go tool pprof -sample_index=alloc_objects -traces mem.prof | go run ./scripts/cpufold
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// module is the import path every repository package starts with.
const module = "github.com/tftproject/tft"

// Buckets for samples no repository package owns.
const (
	gcBucket    = "runtime GC"
	schedBucket = "runtime scheduler"
	otherBucket = "other"
)

// gcFrames mark a sample as the collector's, wherever it was taken: the
// background mark and sweep workers, the scavenger, and a mutator's assist.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcDrain", "runtime.markroot", "runtime.(*pageAlloc).scavenge",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination"}

// schedFrames mark a sample with no repository frame as the scheduler's.
var schedFrames = []string{"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall",
	"runtime.goexit0", "runtime.sysmon", "runtime.mstart", "runtime.wakep", "runtime.notesleep", "runtime.futex"}

// layer names the bucket one sample's stack, innermost frame first, falls in.
func layer(stack []string) string {
	for _, fn := range stack {
		if hasPrefix(fn, gcFrames) {
			return gcBucket
		}
	}
	for _, fn := range stack {
		if pkg, ok := repoPackage(fn); ok {
			return pkg
		}
	}
	for _, fn := range stack {
		if hasPrefix(fn, schedFrames) {
			return schedBucket
		}
	}
	return otherBucket
}

func hasPrefix(fn string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// repoPackage is the package of a repository function, by its last path
// element ("simnet" for internal/simnet, "tft" for the root package).
func repoPackage(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, module)
	if !ok || rest == "" || rest[0] != '.' && rest[0] != '/' {
		return "", false
	}
	path := module + rest
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	if i := strings.IndexByte(path, '.'); i >= 0 {
		path = path[:i]
	}
	return path, true
}

// profile is a folded profile: each layer's sum, in nanoseconds of CPU for
// a CPU profile and in samples (allocations) for any other.
type profile struct {
	sums   map[string]int64
	counts bool
}

// fold reads `go tool pprof -traces` output and sums each layer's sample
// values. The "Type:" line says which kind: cpu values are durations, any
// other's are counts. An allocation profile's "bytes:" lines, the size of
// the sampled objects, are skipped.
func fold(r io.Reader) (profile, error) {
	p := profile{sums: map[string]int64{}}
	var value int64
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			p.sums[layer(stack)] += value
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "Type: "):
			p.counts = strings.TrimSpace(line[len("Type: "):]) != "cpu"
		case strings.HasPrefix(line, "-----"):
			flush()
		case strings.HasPrefix(line, " "):
			fields := strings.Fields(line)
			if len(fields) == 0 || fields[0] == "bytes:" {
				continue
			}
			if len(stack) == 0 {
				// The first line of a trace leads with its sample value.
				v, err := p.parse(fields[0])
				if err != nil {
					return profile{}, fmt.Errorf("cpufold: trace value %q: %v", fields[0], err)
				}
				value, fields = v, fields[1:]
			}
			if len(fields) > 0 {
				stack = append(stack, fields[0])
			}
		}
	}
	flush()
	return p, sc.Err()
}

// parse reads one sample value: a duration in a CPU profile, a count in any
// other.
func (p profile) parse(s string) (int64, error) {
	if p.counts {
		return strconv.ParseInt(s, 10, 64)
	}
	d, err := time.ParseDuration(s)
	return int64(d), err
}

// format renders a sum as parse read it.
func (p profile) format(v int64) string {
	if p.counts {
		return strconv.FormatInt(v, 10)
	}
	return time.Duration(v).String()
}

// table renders the sums largest first, ties by name, with each layer's
// share of the total.
func table(p profile) string {
	names := make([]string, 0, len(p.sums))
	var total int64
	for name, v := range p.sums {
		names = append(names, name)
		total += v
	}
	sort.Slice(names, func(i, j int) bool {
		if p.sums[names[i]] != p.sums[names[j]] {
			return p.sums[names[i]] > p.sums[names[j]]
		}
		return names[i] < names[j]
	})
	column := "CPU"
	if p.counts {
		column = "allocations"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "| layer | %s | share |\n|---|---:|---:|\n", column)
	for _, name := range names {
		share := 0.0
		if total > 0 {
			share = 100 * float64(p.sums[name]) / float64(total)
		}
		fmt.Fprintf(&b, "| %s | %s | %s %% |\n", name, p.format(p.sums[name]), strconv.FormatFloat(share, 'f', 1, 64))
	}
	fmt.Fprintf(&b, "| total | %s | 100.0 %% |\n", p.format(total))
	return b.String()
}

func main() {
	p, err := fold(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(p.sums) == 0 {
		fmt.Fprintln(os.Stderr, "cpufold: no traces on stdin; pipe in `go tool pprof -traces <profile>`")
		os.Exit(1)
	}
	fmt.Print(table(p))
}
