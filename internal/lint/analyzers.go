package lint

import (
	"fmt"
	"sort"
	"strings"
)

// All returns every registered analyzer, sorted by name. Adding an analyzer
// means writing its run function, appending it here, and dropping a
// positive and a negative fixture under testdata/src/<name>/ — see
// DESIGN.md "Static analysis".
func All() []*Analyzer {
	as := []*Analyzer{
		{
			Name: "ctxfirst",
			Doc:  "exported functions taking a context.Context must take it as the first parameter",
			Run:  runCtxFirst,
		},
		{
			Name: "hotalloc",
			Doc:  "functions annotated //tftlint:hotpath may not contain fmt calls, loop string concatenation, interface boxing, or escaping composite literals",
			Run:  runHotAlloc,
		},
		{
			Name: "lockorder",
			Doc:  "the per-package mutex acquisition graph (simnet, proxynet, metrics) must stay acyclic, and dynamic calls under a held lock need hoisting or a waiver",
			Run:  runLockOrder,
		},
		{
			Name: "maporder",
			Doc:  "a range over a map must not reach an order-sensitive sink (fmt output, JSON/dataset writers, Table rows); sort the keys first",
			Run:  runMapOrder,
		},
		{
			Name: "noblock",
			Doc:  "no blocking operations (channel ops, mutexes, Stream.Read/Write, interface Read/Write) inside taskQueue callbacks or SetNotify handlers; use the readiness APIs",
			Run:  runNoBlock,
		},
		{
			Name: "nogo",
			Doc:  "go statements in internal/simnet and internal/proxynet are banned; connection work runs on the event core unless a waiver argues otherwise",
			Run:  runNoGo,
		},
		{
			Name: "poolpair",
			Doc:  "every pooled buffer Get (httpwire readers/writers, proxynet copy buffers) needs its matching Put in the same function; an owned one (simnet ring storage, connection pairs) in the same package",
			Run:  runPoolPair,
		},
		{
			Name: "seededrand",
			Doc:  "internal packages must not call package-level math/rand functions; randomness flows from the seeded world RNG",
			Run:  runSeededRand,
		},
		{
			Name: "simclock",
			Doc:  "wall-clock reads (time.Now, time.Sleep, ...) are banned outside the allowlist; time flows through an injected simnet.Clock",
			Run:  runSimClock,
		},
		{
			Name: "spanend",
			Doc:  "every span returned by trace.Tracer Start calls must be ended (or handed off) in the starting function",
			Run:  runSpanEnd,
		},
	}
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	return as
}

// Select filters the registered analyzers by the -only and -skip flag
// values (comma-separated analyzer names; empty means no constraint). An
// unknown name in either list is a usage error naming the known analyzers.
func Select(only, skip string) ([]*Analyzer, error) {
	all := All()
	byName := make(map[string]*Analyzer, len(all))
	var names []string
	for _, a := range all {
		byName[a.Name] = a
		names = append(names, a.Name)
	}
	parse := func(flag, list string) (map[string]bool, error) {
		set := make(map[string]bool)
		for _, n := range strings.Split(list, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if byName[n] == nil {
				return nil, fmt.Errorf("unknown analyzer %q in -%s (known: %s)", n, flag, strings.Join(names, ", "))
			}
			set[n] = true
		}
		return set, nil
	}
	onlySet, err := parse("only", only)
	if err != nil {
		return nil, err
	}
	skipSet, err := parse("skip", skip)
	if err != nil {
		return nil, err
	}
	var out []*Analyzer
	for _, a := range all {
		if len(onlySet) > 0 && !onlySet[a.Name] {
			continue
		}
		if skipSet[a.Name] {
			continue
		}
		out = append(out, a)
	}
	return out, nil
}
