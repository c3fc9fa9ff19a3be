package tft

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/tftproject/tft/internal/core"
	"github.com/tftproject/tft/internal/trace"
)

// TestWorkersShareOneWorld runs every experiment with two and with seven
// workers on one world (run it with -race) and holds the shared state to
// what a single worker gets: every session lands in exactly one outcome,
// the violation rate stays inside the one-worker run's band (a crawl stops
// where its interleaving takes it, so the rate is compared, not the
// dataset), and the tracer — one lock-free ring and striped ID blocks
// shared by all of them — hands out no ID twice, loses no span it claimed a
// slot for, and keeps every span's parent.
func TestWorkersShareOneWorld(t *testing.T) {
	const spanRoom = 1 << 20 // more than any of these crawls records, so nothing is overwritten
	run := func(t *testing.T, experiment string, workers int) (Run, *trace.Tracer) {
		t.Helper()
		tracer := trace.New(func() time.Time { return time.Time{} }, spanRoom)
		run, err := RunExperiment(context.Background(), experiment,
			Options{Seed: 20160413, Scale: 0.005, Workers: workers, Crawl: core.CrawlConfig{Tracer: tracer}})
		if err != nil {
			t.Fatal(err)
		}
		return run, tracer
	}
	rate := func(r Run) (share float64, nodes int64) {
		man := r.Manifest()
		return float64(man.Violations) / float64(man.NodesDone), man.NodesDone
	}
	for _, experiment := range Experiments() {
		t.Run(experiment, func(t *testing.T) {
			alone, _ := run(t, experiment, 1)
			want, nodes := rate(alone)
			if nodes == 0 {
				t.Fatal("the one-worker run measured no node; the band proves nothing")
			}
			for _, workers := range []int{2, 7} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					shared, tracer := run(t, experiment, workers)
					man := shared.Manifest()
					if sum := man.NodesDone + man.Failures + man.Faults + man.Discarded + man.Duplicates; sum != man.Sessions {
						t.Errorf("outcomes sum to %d (done %d + failures %d + faults %d + discarded %d + duplicates %d), crawl spent %d sessions",
							sum, man.NodesDone, man.Failures, man.Faults, man.Discarded, man.Duplicates, man.Sessions)
					}
					// Three standard errors of the smaller sample, and never
					// tighter than two points: the chaos soak's tolerance.
					got, n := rate(shared)
					band := math.Max(0.02, 3*math.Sqrt(want*(1-want)/float64(min(n, nodes))))
					if math.Abs(got-want) > band {
						t.Errorf("violation rate %.4f over %d nodes; one worker measured %.4f over %d (band ±%.4f)", got, n, want, nodes, band)
					}

					spans := shared.Spans()
					if total := tracer.Total(); total == 0 || total > spanRoom || int64(len(spans)) != total {
						t.Fatalf("tracer recorded %d spans and retains %d, want all of them and fewer than %d", total, len(spans), spanRoom)
					}
					retained := make(map[trace.SpanID]bool, len(spans))
					for _, d := range spans {
						if retained[d.SpanID] {
							t.Fatalf("span ID %v handed out twice", d.SpanID)
						}
						retained[d.SpanID] = true
					}
					for _, d := range spans {
						if d.Parent != 0 && !retained[d.Parent] {
							t.Fatalf("span %v (%s) retained without its parent %v", d.SpanID, d.Name, d.Parent)
						}
					}
				})
			}
		})
	}
}
