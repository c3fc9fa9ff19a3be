package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/metrics"
	"github.com/tftproject/tft/internal/simnet"
)

// Budget.Charge accounting and its telemetry must be exact under
// concurrency (run with -race).
func TestBudgetChargeConcurrentMetrics(t *testing.T) {
	const (
		workers = 16
		charges = 200
		size    = 100
	)
	b := NewBudget(workers * charges * size / 2) // crossed mid-run
	b.Metrics = metrics.NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < charges; i++ {
				b.Charge("z1", size)
			}
		}()
	}
	wg.Wait()
	s := b.Metrics.Snapshot()
	if got := s.Counter("budget_charged_bytes"); got != workers*charges*size {
		t.Fatalf("charged bytes = %d, want %d", got, workers*charges*size)
	}
	// The before/after pair is computed under the lock, so exactly one
	// charge observes the crossing.
	if got := s.Counter("budget_exhausted_total"); got != 1 {
		t.Fatalf("exhausted counter = %d, want 1", got)
	}
}

// wantStopReason requires the crawl behind reg to have counted exactly one
// stop, under reason.
func wantStopReason(t *testing.T, reg *metrics.Registry, reason string) {
	t.Helper()
	stops := reg.Snapshot().Labeled["crawl_stopped_total"]
	if len(stops) != 1 || stops[reason] != 1 {
		t.Fatalf("crawl_stopped_total = %v, want one %s", stops, reason)
	}
}

// Window=1 is the stop rule's degenerate edge: every duplicate makes the
// window's new-rate zero, stopping the crawl; every novel node keeps it
// alive.
func TestCrawlerStopRuleWindowOne(t *testing.T) {
	cr := newCrawler(CrawlConfig{Window: 1, StopNewRate: 0.5, MaxSessions: 1000},
		map[geo.CountryCode]int{"DE": 1}, simnet.NewRand(1))
	cr.observe("a")
	if cr.stats().StoppedByRule {
		t.Fatal("stopped after a novel observation")
	}
	cr.observe("b")
	if cr.stats().StoppedByRule {
		t.Fatal("stopped while every observation is novel")
	}
	cr.observe("a")
	if !cr.stats().StoppedByRule {
		t.Fatal("single duplicate did not stop a Window=1 crawl")
	}
}

// A warmup of all-duplicate observations must not trip the rule until the
// window is genuinely full of duplicates: the one novel observation keeps
// the crawl alive for exactly Window more duplicates.
func TestCrawlerAllDuplicatesWarmup(t *testing.T) {
	cr := newCrawler(CrawlConfig{Window: 5, StopNewRate: 0.1, MaxSessions: 1000},
		map[geo.CountryCode]int{"DE": 1}, simnet.NewRand(2))
	cr.observe("a") // the only novel node
	for i := 0; i < 4; i++ {
		cr.observe("a")
		if cr.stats().StoppedByRule {
			t.Fatalf("stopped after %d duplicates with the novel slot still in-window", i+1)
		}
	}
	// 5th duplicate evicts the novel outcome: window all-duplicate, rate 0.
	cr.observe("a")
	if !cr.stats().StoppedByRule {
		t.Fatal("all-duplicate window did not stop the crawl")
	}
}

// Cancelling the context stops the crawl within one session per worker:
// next() refuses to hand out sessions after cancellation, so only sessions
// already in flight complete.
func TestCrawlerCancellationMidCrawl(t *testing.T) {
	const (
		workers     = 4
		cancelPoint = 50
	)
	reg := metrics.NewRegistry()
	cr := newCrawler(
		CrawlConfig{Workers: workers, Window: 1 << 16, MaxSessions: 1 << 20, Metrics: reg},
		map[geo.CountryCode]int{"DE": 1, "US": 3}, simnet.NewRand(3))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n atomic.Int64
	cr.runWorkers(ctx, func(_ int, cc geo.CountryCode, sess string, _ bool) {
		cr.observe(sess) // all novel: the stop rule never fires
		if n.Add(1) == cancelPoint {
			cancel()
		}
	})
	st := cr.stats()
	if st.Sessions > cancelPoint+workers {
		t.Fatalf("sessions = %d, want <= %d (cancel point + one in-flight session per worker)",
			st.Sessions, cancelPoint+workers)
	}
	if st.StoppedByRule {
		t.Fatal("cancellation misreported as a rule stop")
	}
	// Every worker's next() saw the cancellation; it is counted once.
	wantStopReason(t, reg, "context_cancelled")
}

// The crawler's counters must agree with its stats under a concurrent
// crawl (run with -race).
func TestCrawlerMetricsMatchStats(t *testing.T) {
	reg := metrics.NewRegistry()
	cr := newCrawler(
		CrawlConfig{Workers: 8, Window: 60, StopNewRate: 0.05, MaxSessions: 50000, Metrics: reg},
		map[geo.CountryCode]int{"DE": 2, "US": 5, "BR": 1}, simnet.NewRand(4))
	var dup atomic.Int64
	cr.runWorkers(context.Background(), func(_ int, cc geo.CountryCode, sess string, _ bool) {
		// A 100-node world: novelty dries up and the rule stops the crawl.
		var sn int
		fmt.Sscanf(sess, "s%d", &sn)
		zid := fmt.Sprintf("z%03d", sn*37%100)
		if _, isNew := cr.observe(zid); !isNew {
			dup.Add(1)
		}
	})
	st := cr.stats()
	s := reg.Snapshot()
	if got := s.Counter("crawl_sessions_total"); got != int64(st.Sessions) {
		t.Fatalf("sessions counter = %d, stats = %d", got, st.Sessions)
	}
	if got := s.Counter("crawl_nodes_total"); got != int64(st.UniqueNodes) {
		t.Fatalf("nodes counter = %d, stats = %d", got, st.UniqueNodes)
	}
	if got := s.Counter("crawl_duplicates_total"); got != dup.Load() {
		t.Fatalf("duplicates counter = %d, measured = %d", got, dup.Load())
	}
	perCountry := int64(0)
	for _, v := range s.Labeled["crawl_sessions_by_country"] {
		perCountry += v
	}
	if perCountry != int64(st.Sessions) {
		t.Fatalf("per-country sum = %d, sessions = %d", perCountry, st.Sessions)
	}
	if !st.StoppedByRule {
		t.Fatal("crawl did not stop by rule")
	}
	wantStopReason(t, reg, "stop_rule")
	if s.Histograms["crawl_window_new_rate"].Count == 0 {
		t.Fatal("no stop-rule window trajectory samples")
	}
}
