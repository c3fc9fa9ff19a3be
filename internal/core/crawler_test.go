package core

import (
	"bufio"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/httpwire"
	"github.com/tftproject/tft/internal/metrics"
	"github.com/tftproject/tft/internal/proxynet"
	"github.com/tftproject/tft/internal/simnet"
)

// Property: the crawler's observe bookkeeping — UniqueNodes equals the
// number of distinct zIDs ever observed, regardless of order.
func TestPropertyCrawlerUniqueCount(t *testing.T) {
	f := func(ids []uint8) bool {
		cr := newCrawler(CrawlConfig{Window: 10000, MaxSessions: 1 << 20},
			map[geo.CountryCode]int{"DE": 1}, simnet.NewRand(1))
		distinct := map[uint8]bool{}
		for _, id := range ids {
			cr.observe(fmt.Sprintf("z%03d", id))
			distinct[id] = true
		}
		return cr.stats().UniqueNodes == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: observe returns true exactly once per zID.
func TestPropertyCrawlerObserveOnce(t *testing.T) {
	f := func(ids []uint8) bool {
		cr := newCrawler(CrawlConfig{Window: 10000, MaxSessions: 1 << 20},
			map[geo.CountryCode]int{"DE": 1}, simnet.NewRand(2))
		seen := map[uint8]bool{}
		for _, id := range ids {
			zid := fmt.Sprintf("z%03d", id)
			kept, isNew := cr.observe(zid)
			if isNew == seen[id] || isNew != (kept == zid) {
				return false
			}
			seen[id] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCrawlerWorkersConcurrencySafe(t *testing.T) {
	weights := map[geo.CountryCode]int{"DE": 10, "US": 30, "BR": 5}
	cr := newCrawler(CrawlConfig{Workers: 16, Window: 100, StopNewRate: 0.02, MaxSessions: 20000},
		weights, simnet.NewRand(3))
	var mu sync.Mutex
	perCountry := map[geo.CountryCode]int{}
	cr.runWorkers(context.Background(), func(_ int, cc geo.CountryCode, sess string, _ bool) {
		// Simulate a 40-node world.
		zid := fmt.Sprintf("z%02d", len(sess)%5*8+int(sess[len(sess)-1])%8)
		cr.observe(zid)
		mu.Lock()
		perCountry[cc]++
		mu.Unlock()
	})
	st := cr.stats()
	if !st.StoppedByRule {
		t.Fatalf("stats = %+v", st)
	}
	if perCountry["US"] <= perCountry["BR"] {
		t.Fatalf("weighting broken: %v", perCountry)
	}
	total := 0
	for _, v := range perCountry {
		total += v
	}
	if total != st.Sessions {
		t.Fatalf("sessions %d != measured %d", st.Sessions, total)
	}
}

func TestCrawlerEmptyWeights(t *testing.T) {
	cr := newCrawler(CrawlConfig{}, nil, simnet.NewRand(4))
	if _, _, _, ok := cr.next(context.Background()); ok {
		t.Fatal("crawl with no countries handed out a session")
	}
}

func TestCrawlerMaxSessionsCap(t *testing.T) {
	reg := metrics.NewRegistry()
	cr := newCrawler(CrawlConfig{Window: 1 << 20, MaxSessions: 37, Metrics: reg},
		map[geo.CountryCode]int{"DE": 1}, simnet.NewRand(5))
	n := 0
	for {
		_, _, _, ok := cr.next(context.Background())
		if !ok {
			break
		}
		n++
		cr.observe(fmt.Sprintf("z%d", n)) // always new: rule never triggers
	}
	if n != 37 {
		t.Fatalf("sessions = %d, want 37", n)
	}
	if cr.stats().StoppedByRule {
		t.Fatal("cap stop misreported as rule stop")
	}
	// Asking again at the cap does not count a second stop.
	cr.next(context.Background())
	wantStopReason(t, reg, "session_cap")
}

// Property: budget accounting is exact under concurrency.
func TestPropertyBudgetConcurrent(t *testing.T) {
	f := func(charges []uint16) bool {
		b := NewBudget(1 << 40)
		var wg sync.WaitGroup
		var total int64
		for _, c := range charges {
			total += int64(c)
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				b.Charge("z", n)
			}(int(c))
		}
		wg.Wait()
		return b.Used("z") == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestObjectSizeAblationRuns(t *testing.T) {
	// Smoke-level: the ablation machinery is exercised end-to-end in
	// BenchmarkAblationObjectSize; here check the arithmetic helpers.
	r := ObjectSizeResult{Nodes: 200, TinyModified: 1, FullModified: 4}
	if r.TinyRate() >= r.FullRate() {
		t.Fatal("rates inverted")
	}
	var zero ObjectSizeResult
	if zero.TinyRate() != 0 || zero.FullRate() != 0 {
		t.Fatal("zero-node rates not zero")
	}
}

// TestKeptZIDPinsNoHead: the zID ParseDebug reads is a substring of the
// response's head, and the copy observe keeps for a new node shares no byte
// with it, so that neither a dataset nor the seen set pins a head. A revisit
// keeps nothing.
func TestKeptZIDPinsNoHead(t *testing.T) {
	wire := "HTTP/1.1 200 OK\r\n" + proxynet.TimelineHeader + ": v1 zid=z0001 ip=91.4.4.4\r\nContent-Length: 0\r\n\r\n"
	resp, err := httpwire.ReadResponse(bufio.NewReader(strings.NewReader(wire)))
	if err != nil {
		t.Fatal(err)
	}
	timeline := resp.Header.Get(proxynet.TimelineHeader)
	within := func(s string) bool {
		p, head := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(timeline)))
		return p >= head && p < head+uintptr(len(timeline))
	}
	dbg := proxynet.ParseDebug(&resp.Header)
	if dbg.ZID != "z0001" || !within(dbg.ZID) {
		t.Fatalf("ParseDebug's zID %q is not the substring of the head's timeline %q", dbg.ZID, timeline)
	}
	cr := newCrawler(CrawlConfig{}, map[geo.CountryCode]int{"DE": 1}, simnet.NewRand(1))
	kept, isNew := cr.observe(dbg.ZID)
	if !isNew || kept != dbg.ZID || within(kept) {
		t.Fatalf("observe kept %q (new %v), sharing the head's bytes: %v", kept, isNew, within(kept))
	}
	for zid := range cr.seen {
		if within(zid) {
			t.Fatalf("the seen set's %q shares the head's bytes", zid)
		}
	}
	if kept, isNew := cr.observe(dbg.ZID); isNew || kept != "" {
		t.Fatalf("a revisit kept %q (new %v), want nothing", kept, isNew)
	}
}
