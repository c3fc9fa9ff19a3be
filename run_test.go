package tft

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/tftproject/tft/internal/core"
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
