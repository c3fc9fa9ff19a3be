package tft

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/tftproject/tft/internal/core"
	"github.com/tftproject/tft/internal/population"
	"github.com/tftproject/tft/internal/simnet"
	"github.com/tftproject/tft/internal/trace"
)

// Every experiment must satisfy the unified Run interface.
var (
	_ Run = (*DNSRun)(nil)
	_ Run = (*HTTPRun)(nil)
	_ Run = (*TLSRun)(nil)
	_ Run = (*MonitorRun)(nil)
	_ Run = (*SMTPRun)(nil)
)

// The acceptance bar for the instrumented engine: a default-scale DNS run
// exposes a non-empty metrics snapshot — sessions, unique nodes,
// duplicates, the stop-rule window trajectory, why the crawl stopped, and
// per-country session counts — and report.go renders it as a table.
func TestRunDNSDefaultScaleMetrics(t *testing.T) {
	run, err := RunDNS(context.Background(), Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s := run.Metrics()
	st := run.Stats()
	if got := s.Counter("crawl_sessions_total"); got == 0 || got != int64(st.Sessions) {
		t.Fatalf("sessions counter = %d, stats = %d", got, st.Sessions)
	}
	if got := s.Counter("crawl_nodes_total"); got == 0 || got != int64(st.UniqueNodes) {
		t.Fatalf("nodes counter = %d, stats = %d", got, st.UniqueNodes)
	}
	if s.Counter("crawl_duplicates_total") == 0 {
		t.Fatal("a rule-stopped crawl must have revisited nodes")
	}
	if s.Histograms["crawl_window_new_rate"].Count == 0 {
		t.Fatal("no stop-rule window trajectory")
	}
	if stops := s.Labeled["crawl_stopped_total"]; !st.StoppedByRule || len(stops) != 1 || stops["stop_rule"] != 1 {
		t.Fatalf("crawl_stopped_total = %v, stats = %+v; want one stop_rule", stops, st)
	}
	byCountry := s.Labeled["crawl_sessions_by_country"]
	if len(byCountry) < 10 {
		t.Fatalf("per-country sessions cover %d countries", len(byCountry))
	}
	// Each retained session's record is its root span.
	sessions := 0
	for _, sp := range run.Spans() {
		if sp.Kind != trace.KindClient {
			continue
		}
		sessions++
		if sp.Str("session") == "" || byCountry[sp.Str("country")] == 0 || sp.Str("outcome") == "" {
			t.Fatalf("root span is not a session record: %+v", sp)
		}
	}
	if sessions == 0 {
		t.Fatal("no session root spans retained")
	}

	tbl := MetricsTable(run.Name(), s)
	if len(tbl.Rows) == 0 {
		t.Fatal("metrics table rendered no rows")
	}
	out := tbl.String()
	for _, want := range []string{"crawl_sessions_total", "crawl_window_new_rate", "crawl_sessions_by_country"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics table missing %s:\n%s", want, out)
		}
	}
}

// Workers precedence: Options.Workers is the one worker-count knob, and
// it overwrites Crawl.Workers, set or not; zero defers to the crawl
// engine's default.
func TestWorkersPrecedence(t *testing.T) {
	for _, c := range []struct{ workers, crawl int }{{3, 0}, {3, 5}, {0, 5}, {0, 0}} {
		o := Options{Workers: c.workers, Crawl: core.CrawlConfig{Workers: c.crawl}}.withDefaults()
		if o.Crawl.Workers != c.workers {
			t.Errorf("Workers %d, Crawl.Workers %d: the crawl runs %d workers, want %d",
				c.workers, c.crawl, o.Crawl.Workers, c.workers)
		}
	}
}

// A cancelled context aborts the campaign promptly with the cancellation
// error instead of running the crawl to completion.
func TestRunAllCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunAll(ctx, Options{Seed: 13, Scale: 0.005})
	if err == nil {
		t.Fatal("cancelled RunAll returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled RunAll returned partial results")
	}
}

// Each longitudinal wave carries its own snapshot, so per-wave crawl cost
// stays comparable across waves.
func TestLongitudinalWaveMetrics(t *testing.T) {
	run, err := RunLongitudinal(context.Background(), Options{Seed: 17, Scale: 0.005}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Waves) != 2 {
		t.Fatalf("waves = %d", len(run.Waves))
	}
	for _, w := range run.Waves {
		if w.Metrics == nil {
			t.Fatalf("wave %d has no metrics", w.Index)
		}
		if w.Metrics.Counter("crawl_sessions_total") == 0 {
			t.Fatalf("wave %d recorded no sessions", w.Index)
		}
	}
}

// Runs() drives the iterating consumers; nil-snapshot rendering must be
// safe for partially-constructed results.
func TestResultsRunsAndNilMetricsTable(t *testing.T) {
	tbl := MetricsTable("empty", nil)
	if len(tbl.Rows) != 0 {
		t.Fatalf("nil snapshot rendered rows: %v", tbl.Rows)
	}
	_ = tbl.String()

	res := &Results{DNS: &DNSRun{}, HTTP: &HTTPRun{}, TLS: &TLSRun{}, Monitor: &MonitorRun{}}
	runs := res.Runs()
	wantNames := []string{"dns", "http", "tls", "monitor"}
	for i, run := range runs {
		if run.Name() != wantNames[i] {
			t.Fatalf("run %d = %q, want %q", i, run.Name(), wantNames[i])
		}
		if run.Metrics() == nil {
			t.Fatalf("run %q: nil-registry Metrics() must return an empty snapshot", run.Name())
		}
	}
}

// spansOf returns a finished run, its retained spans and the number of spans
// its tracer ever recorded.
func spansOf[D crawlDataset, A tableSet](r *ExperimentRun[D, A], err error) (Run, []trace.SpanData, int64, error) {
	if err != nil {
		return nil, nil, 0, err
	}
	return r, r.Spans(), r.Opts.Crawl.Tracer.Total(), nil
}

// TestCrawlsRunAtOneInstant pins the premise that lets a fabric stream carry
// no deadline and a fault never wait: no crawl advances the world's virtual
// clock while a session is in flight, with or without chaos. Every span of a
// small dns, http, tls, smtp and monitor crawl, fault-free and under each
// chaos profile, starts and ends at population.Epoch; the monitor's
// refetches, which run as the clock crosses the monitoring day after the
// crawl, record none.
func TestCrawlsRunAtOneInstant(t *testing.T) {
	ctx := context.Background()
	crawls := map[string]func(Options) (Run, []trace.SpanData, int64, error){
		"dns":     func(o Options) (Run, []trace.SpanData, int64, error) { return spansOf(RunDNS(ctx, o)) },
		"http":    func(o Options) (Run, []trace.SpanData, int64, error) { return spansOf(RunHTTP(ctx, o)) },
		"tls":     func(o Options) (Run, []trace.SpanData, int64, error) { return spansOf(RunTLS(ctx, o)) },
		"smtp":    func(o Options) (Run, []trace.SpanData, int64, error) { return spansOf(RunSMTP(ctx, o)) },
		"monitor": func(o Options) (Run, []trace.SpanData, int64, error) { return spansOf(RunMonitor(ctx, o)) },
	}
	for name, crawl := range crawls {
		t.Run(name, func(t *testing.T) {
			for _, chaos := range append([]string{""}, simnet.ProfileNames()...) {
				label := chaos
				if label == "" {
					label = "fault-free"
				}
				t.Run(label, func(t *testing.T) {
					opts := Options{Seed: 7, Scale: 0.005, Workers: 2, Chaos: chaos, Crawl: core.CrawlConfig{MaxSessions: 150}}
					run, spans, total, err := crawl(opts)
					if err != nil {
						t.Fatal(err)
					}
					if int64(len(spans)) != total {
						t.Fatalf("the tracer kept %d of %d spans; the check needs every one", len(spans), total)
					}
					probes := 0
					for _, sp := range spans {
						if sp.Kind == trace.KindClient {
							probes++
						}
						if !sp.Start.Equal(population.Epoch) || !sp.End.Equal(population.Epoch) {
							t.Fatalf("span %s ran from %v to %v, not at the epoch %v", sp.Name, sp.Start, sp.End, population.Epoch)
						}
					}
					if probes == 0 || probes != run.Stats().Sessions {
						t.Fatalf("%d probe spans for %d sessions", probes, run.Stats().Sessions)
					}
					// A profile that faults every port must have faulted this
					// crawl, or the chaos input proved nothing. flaky-exits
					// faults only 80 and 443, which an smtp crawl never dials.
					injected := int64(0)
					for _, n := range run.Metrics().Labeled["fault_injected_total"] {
						injected += n
					}
					if prof, _ := simnet.ProfileByName(chaos); chaos != "" && len(prof.Ports) == 0 && injected == 0 {
						t.Fatalf("the %s profile injected no fault", chaos)
					}
				})
			}
		})
	}
}
