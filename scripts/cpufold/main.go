// Command cpufold folds a CPU profile by layer: every sample goes to the
// innermost package of this repository on its stack, or, when the sample is
// the garbage collector's or the stack has no repository frame, to runtime
// GC, the runtime scheduler or "other". It reads the output of
// `go tool pprof -traces` and prints a Markdown table, largest layer first:
// DESIGN §6's by-layer CPU table.
//
//	go test -run=NONE -bench='HTTPExperimentRun$' -benchtime=150x -cpuprofile cpu.prof .
//	go tool pprof -traces cpu.prof | go run ./scripts/cpufold
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

// fold reads `go tool pprof -traces` output and sums each layer's sample
// time.
func fold(r io.Reader) (map[string]time.Duration, error) {
	sums := map[string]time.Duration{}
	var value time.Duration
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			sums[layer(stack)] += value
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "-----"):
			flush()
		case strings.HasPrefix(line, " "):
			fields := strings.Fields(line)
			if len(fields) == 0 {
				continue
			}
			if len(stack) == 0 {
				// The first line of a trace leads with its sample value.
				d, err := time.ParseDuration(fields[0])
				if err != nil {
					return nil, fmt.Errorf("cpufold: trace value %q: %v", fields[0], err)
				}
				value, fields = d, fields[1:]
			}
			if len(fields) > 0 {
				stack = append(stack, fields[0])
			}
		}
	}
	flush()
	return sums, sc.Err()
}

// table renders the sums largest first, ties by name, with each layer's
// share of the total.
func table(sums map[string]time.Duration) string {
	names := make([]string, 0, len(sums))
	var total time.Duration
	for name, d := range sums {
		names = append(names, name)
		total += d
	}
	sort.Slice(names, func(i, j int) bool {
		if sums[names[i]] != sums[names[j]] {
			return sums[names[i]] > sums[names[j]]
		}
		return names[i] < names[j]
	})
	var b strings.Builder
	b.WriteString("| layer | CPU | share |\n|---|---:|---:|\n")
	for _, name := range names {
		share := 0.0
		if total > 0 {
			share = 100 * float64(sums[name]) / float64(total)
		}
		fmt.Fprintf(&b, "| %s | %s | %s %% |\n", name, sums[name], strconv.FormatFloat(share, 'f', 1, 64))
	}
	fmt.Fprintf(&b, "| total | %s | 100.0 %% |\n", total)
	return b.String()
}

func main() {
	sums, err := fold(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(sums) == 0 {
		fmt.Fprintln(os.Stderr, "cpufold: no traces on stdin; pipe in `go tool pprof -traces <profile>`")
		os.Exit(1)
	}
	fmt.Print(table(sums))
}
