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

// violationDetails is what each experiment's violating probes carry on
// their root span. Monitoring has none: it decides after its watch window,
// when no span is open.
var violationDetails = map[string]string{
	"dns":  "dns_hijack",
	"http": "http_modified",
	"tls":  "tls_cert_replaced",
	"smtp": "smtp_starttls_stripped",
}

// TestWorkersShareOneWorld runs every experiment (and DNS under the
// lossy-links chaos profile, so that probes fault) with two and with seven
// workers on one world (run it with -race) and holds the shared state to
// what a single worker gets: every session lands in exactly one outcome,
// the violation rate stays inside the one-worker run's band (a crawl stops
// where its interleaving takes it, so the rate is compared, not the
// dataset), the tracer — one lock-free ring and striped ID blocks shared by
// all of them — hands out no ID twice, loses no span it claimed a slot for,
// and keeps every span's parent, and the root spans are the per-probe
// record: one a session (TraceSample 1 traces every session), agreeing with
// the manifest outcome by outcome and verdict by verdict.
func TestWorkersShareOneWorld(t *testing.T) {
	const spanRoom = 1 << 20 // more than any of these crawls records, so nothing is overwritten
	type worldCase struct{ name, experiment, chaos string }
	run := func(t *testing.T, c worldCase, workers int) (Run, *trace.Tracer) {
		t.Helper()
		tracer := trace.New(func() time.Time { return time.Time{} }, spanRoom)
		run, err := RunExperiment(context.Background(), c.experiment,
			Options{Seed: 20160413, Scale: 0.005, Workers: workers, Chaos: c.chaos, Crawl: core.CrawlConfig{Tracer: tracer, TraceSample: 1}})
		if err != nil {
			t.Fatal(err)
		}
		return run, tracer
	}
	rate := func(r Run) (share float64, nodes int64) {
		man := r.Manifest()
		return float64(man.Violations) / float64(man.NodesDone), man.NodesDone
	}
	var cases []worldCase
	for _, name := range Experiments() {
		cases = append(cases, worldCase{name: name, experiment: name})
	}
	cases = append(cases, worldCase{name: "dns+lossy-links", experiment: "dns", chaos: "lossy-links"})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			alone, _ := run(t, c, 1)
			want, nodes := rate(alone)
			if nodes == 0 {
				t.Fatal("the one-worker run measured no node; the band proves nothing")
			}
			for _, workers := range []int{2, 7} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					shared, tracer := run(t, c, workers)
					man := shared.Manifest()
					if c.chaos != "" && man.Faults == 0 {
						t.Errorf("%s faulted no probe; the faulted row proves nothing", c.chaos)
					}
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

					// The root spans are the per-probe record.
					detail := violationDetails[c.experiment]
					byOutcome := map[string]int64{}
					var roots, violating int64
					for _, d := range spans {
						if d.Kind != trace.KindClient {
							continue
						}
						roots++
						byOutcome[d.Str("outcome")]++
						if d.Parent != 0 || d.Str("session") == "" || d.Str("country") == "" {
							t.Fatalf("client span %+v is not a session's root record", d)
						}
						if v := d.Str("violation"); v != "" {
							violating++
							if v != detail || d.Str("outcome") != "ok" || d.Str("zid") == "" {
								t.Errorf("violating root span %+v, want violation=%q on a measured node", d, detail)
							}
						}
					}
					snap := shared.Metrics()
					if roots != man.Sessions || snap.Counter("crawl_sessions_total") != man.Sessions {
						t.Errorf("%d root spans, crawl_sessions_total %d, manifest spent %d sessions",
							roots, snap.Counter("crawl_sessions_total"), man.Sessions)
					}
					wantOutcomes := map[string]int64{"ok": man.NodesDone, "failed": man.Failures,
						"duplicate": man.Duplicates, "discarded": man.Discarded, "faulted": man.Faults}
					for oc, n := range wantOutcomes {
						if byOutcome[oc] != n {
							t.Errorf("%d root spans with outcome=%s, manifest counts %d", byOutcome[oc], oc, n)
						}
					}
					if len(byOutcome) > len(wantOutcomes) {
						t.Errorf("root spans carry outcomes %v, want only %v", byOutcome, wantOutcomes)
					}
					if detail != "" {
						if violating != man.Violations {
							t.Errorf("%d root spans carry a violation, manifest counts %d", violating, man.Violations)
						}
					} else if got := snap.Counter("monitor_monitored_total"); violating != 0 || got != man.Violations {
						t.Errorf("monitor: %d root spans carry a violation (want 0), monitor_monitored_total %d, manifest counts %d",
							violating, got, man.Violations)
					}
				})
			}
		})
	}
}
