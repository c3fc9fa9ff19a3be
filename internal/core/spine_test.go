package core

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/metrics"
	"github.com/tftproject/tft/internal/progress"
	"github.com/tftproject/tft/internal/trace"
)

// toyObs is the record of a sixth, test-only experiment: everything a new
// experiment must bring to the crawl spine is this type, toyMeasure's probe
// and the crawlSpec literal in the test below.
type toyObs struct {
	zid     string
	flagged bool
}

const toySessions = 350

// toyMeasure scripts a probe off the session number: sessions ending in
// 0-4 find a fresh node (zIDs deliberately not in session order, every
// third one flagged as a violation), 5 fails, 6 revisits one shared node
// (new exactly once, a duplicate ever after), 7 is discarded after the
// node was identified, 8 dies to a transport fault, 9 fails.
func toyMeasure(_ context.Context, cr *crawler, _ geo.CountryCode, sess string) (*toyObs, outcome) {
	n, err := strconv.Atoi(sess[1:])
	if err != nil {
		panic(err)
	}
	switch n % 10 {
	case 5, 9:
		return nil, outcomeFailed
	case 8:
		return nil, outcomeFault
	}
	obs := &toyObs{zid: fmt.Sprintf("z%05d", n*7919%10007), flagged: n%3 == 0}
	if n%10 == 6 {
		obs.zid, obs.flagged = "shared", false
	}
	zid, isNew := cr.observe(obs.zid)
	if !isNew {
		return nil, outcomeDuplicate
	}
	obs.zid = zid
	if n%10 == 7 {
		return obs, outcomeDiscarded
	}
	return obs, outcomeOK
}

// toyWant is the outcome mix toyMeasure produces over sessions 1..n,
// whichever worker draws which session.
func toyWant(n int) (want [numOutcomes]int, violations int) {
	for s := 1; s <= n; s++ {
		switch s % 10 {
		case 5, 9:
			want[outcomeFailed]++
		case 6:
			want[outcomeDuplicate]++
		case 7:
			want[outcomeDiscarded]++
		case 8:
			want[outcomeFault]++
		default:
			want[outcomeOK]++
			if s%3 == 0 {
				violations++
			}
		}
	}
	// The first visit to the shared node is a measurement, not a revisit.
	want[outcomeDuplicate]--
	want[outcomeOK]++
	return want, violations
}

// TestCrawlSpineToyExperiment drives runCrawl with a scripted sixth
// experiment and requires every session to land exactly once — in the
// dataset tallies, the flight recorder, the named counters and the root
// spans alike — and the merged observations to come back zID-sorted for any
// worker count.
func TestCrawlSpineToyExperiment(t *testing.T) {
	want, wantViolations := toyWant(toySessions)
	for _, workers := range []int{1, 2, 7} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			reg, prog := metrics.NewRegistry(), progress.NewTracker()
			tracer := trace.New(nil, 2*toySessions) // retains every span
			onOK := make([]int, workers)
			ds, err := runCrawl(context.Background(),
				CrawlConfig{Workers: workers, Window: 10 * toySessions, MaxSessions: toySessions,
					Metrics: reg, Progress: prog, Tracer: tracer, TraceSample: 1},
				map[geo.CountryCode]int{"DE": 3, "US": 5}, testSeed,
				crawlSpec[*toyObs]{
					name: "toy", stream: "crawl/toy",
					measure:          toyMeasure,
					zid:              func(o *toyObs) string { return o.zid },
					violation:        func(o *toyObs) bool { return o.flagged },
					violationCounter: "toy_flagged_total", violationDetail: "toy_flagged",
					onOK:             func(shard int, _ *toyObs) { onOK[shard]++ },
					discardedCounter: "toy_discarded_total",
				})
			if err != nil {
				t.Fatal(err)
			}

			got := [numOutcomes]int{outcomeOK: len(ds.Observations), outcomeFailed: ds.Failures,
				outcomeDuplicate: ds.Duplicates, outcomeDiscarded: ds.Discarded, outcomeFault: ds.Faults}
			if got != want {
				t.Errorf("dataset tallies = %v, want %v", got, want)
			}
			if ds.Crawl.Sessions != toySessions || ds.Crawl.Faulted != want[outcomeFault] {
				t.Errorf("crawl stats = %+v", ds.Crawl)
			}
			if !slices.IsSortedFunc(ds.Observations, func(a, b *toyObs) int {
				return strings.Compare(a.zid, b.zid)
			}) {
				t.Error("merged observations are not zID-sorted")
			}

			st := prog.Snapshot()
			gotProg := [numOutcomes]int{outcomeOK: int(st.Done), outcomeFailed: int(st.Failures),
				outcomeDuplicate: int(st.Duplicates), outcomeDiscarded: int(st.Discarded), outcomeFault: int(st.Faults)}
			if gotProg != want || st.Probes != toySessions || int(st.Violations) != wantViolations {
				t.Errorf("tracker = %v probes %d violations %d, want %v probes %d violations %d",
					gotProg, st.Probes, st.Violations, want, toySessions, wantViolations)
			}
			if st.Experiment != "toy" || st.Workers != workers || st.TotalNodes != 8 {
				t.Errorf("tracker began as %q with %d workers over %d nodes", st.Experiment, st.Workers, st.TotalNodes)
			}

			snap := reg.Snapshot()
			for name, n := range map[string]int{
				"crawl_failures_total": want[outcomeFailed],
				"toy_discarded_total":  want[outcomeDiscarded],
				"fault_probes_total":   want[outcomeFault],
				"toy_flagged_total":    wantViolations,
			} {
				if got := snap.Counter(name); got != int64(n) {
					t.Errorf("%s = %d, want %d", name, got, n)
				}
			}
			// One root span a session, carrying its outcome and — on exactly
			// the flagged records — the verdict.
			var gotSpans [numOutcomes]int
			violating := 0
			for _, sp := range tracer.Spans() {
				if sp.Name != "probe.toy" || sp.Kind != trace.KindClient {
					t.Fatalf("unexpected span %+v", sp)
				}
				gotSpans[slices.Index(outcomeNames[:], sp.Str("outcome"))]++
				if v := sp.Str("violation"); v != "" {
					violating++
					if v != "toy_flagged" || sp.Str("outcome") != "ok" || sp.Str("zid") == "" {
						t.Errorf("violating span %+v", sp)
					}
				}
			}
			if gotSpans != want || violating != wantViolations {
				t.Errorf("root spans by outcome = %v with %d violations, want %v with %d",
					gotSpans, violating, want, wantViolations)
			}
			for shard := range onOK {
				if int64(onOK[shard]) != st.Shards[shard].Done {
					t.Errorf("shard %d: onOK saw %d, tracker %d", shard, onOK[shard], st.Shards[shard].Done)
				}
			}
		})
	}
}
