package proxynet

import (
	"math/rand/v2"
	"strconv"
	"testing"
	"time"

	"github.com/tftproject/tft/internal/geo"
)

// testLazyPool is a pool of n nodes "z0"…, built by build.
func testLazyPool(seed uint64, churn float64, n int, build func(i int) *ExitNode) *LazyPool {
	p := NewLazyPool(rand.New(rand.NewPCG(seed, 0)), churn, build, func(zid string) (int, bool) {
		i, err := strconv.Atoi(zid[1:])
		return i, err == nil
	})
	for i := 0; i < n; i++ {
		p.Register("DE")
	}
	return p
}

// TestLazyPoolBuildsOutsideItsLock: the pool lock orders the draws, not the
// materializations — one worker building a node does not hold up another's
// pick or a pinned session's Get.
func TestLazyPoolBuildsOutsideItsLock(t *testing.T) {
	building, finish := make(chan struct{}), make(chan struct{})
	first := true
	p := testLazyPool(7, 0, 8, func(i int) *ExitNode {
		if first {
			first = false
			close(building)
			<-finish
		}
		return &ExitNode{ZID: "z" + strconv.Itoa(i)}
	})
	slow := make(chan struct{})
	go func() {
		defer close(slow)
		p.Pick("", nil)
	}()
	<-building // the first pick has drawn and is building its node
	done := make(chan struct{})
	go func() {
		defer close(done)
		if n, up := p.Pick("DE", nil); n == nil || !up {
			t.Errorf("second Pick = %v, %v", n, up)
		}
		if n, ok := p.Get("z3"); !ok || n.PeerID() != "z3" {
			t.Errorf("Get(z3) = %v, %v", n, ok)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Error("a pick waits for another pick's materialization")
	}
	close(finish)
	<-slow
}

// TestLazyPoolDrawOrder: what a fixed seed picks does not depend on where
// the node is built — the index draw, the exclusion probe and the churn roll
// consume the rng in one order, first attempt or retry.
func TestLazyPoolDrawOrder(t *testing.T) {
	build := func(i int) *ExitNode { return &ExitNode{ZID: "z" + strconv.Itoa(i)} }
	const n, churn = 16, 0.3
	p := testLazyPool(20160413, churn, n, build)
	rng := rand.New(rand.NewPCG(20160413, 0)) // the pool's stream, replayed
	exclude := map[string]bool{}
	for pick := 0; pick < 200; pick++ {
		if pick%5 == 4 {
			exclude = map[string]bool{"z" + strconv.Itoa(pick%n): true, "z" + strconv.Itoa((pick+1)%n): true}
		} else if pick%5 == 0 {
			exclude = nil
		}
		want := rng.IntN(n)
		for exclude["z"+strconv.Itoa(want)] {
			want = rng.IntN(n)
		}
		wantUp := !(rng.Float64() < churn)
		got, up := p.Pick("", exclude)
		if got == nil || got.PeerID() != "z"+strconv.Itoa(want) || up != wantUp {
			t.Fatalf("pick %d (excluding %v) = %v, %v; the rng stream says z%d, %v", pick, exclude, got, up, want, wantUp)
		}
	}
}

// TestPoolsPickAlike: Pool and LazyPool run one selection, so over the same
// population and seed they pick the same sequence — node and churn roll —
// by country or not, first attempt or retry, sparse exclusion or one dense
// enough to end in the scan, and agree when nothing is left.
func TestPoolsPickAlike(t *testing.T) {
	const seed, churn = 20160413, 0.2
	countries := []geo.CountryCode{"DE", "FR", "DE", "US", "DE"}
	nodes := make([]*ExitNode, 40)
	eager := NewPool(rand.New(rand.NewPCG(seed, 0)), churn)
	lazy := NewLazyPool(rand.New(rand.NewPCG(seed, 0)), churn,
		func(i int) *ExitNode { return nodes[i] },
		func(zid string) (int, bool) {
			i, err := strconv.Atoi(zid[1:])
			return i, err == nil && i < len(nodes)
		})
	for i := range nodes {
		nodes[i] = &ExitNode{ZID: "z" + strconv.Itoa(i), Country: countries[i%len(countries)]}
		if err := eager.Add(nodes[i]); err != nil {
			t.Fatal(err)
		}
		lazy.Register(nodes[i].Country)
	}
	allBut := func(cc geo.CountryCode, keep string) map[string]bool {
		ex := map[string]bool{}
		for _, n := range nodes {
			if (cc == "" || n.Country == cc) && n.ZID != keep {
				ex[n.ZID] = true
			}
		}
		return ex
	}
	for pick := 0; pick < 600; pick++ {
		cc := []geo.CountryCode{"", "DE", "US", "FR"}[pick%4]
		var exclude map[string]bool
		switch pick % 7 {
		case 1, 2:
			exclude = map[string]bool{"z" + strconv.Itoa(pick%40): true, "z" + strconv.Itoa(pick*7%40): true}
		case 3:
			exclude = allBut(cc, "z3") // dense: only z3 is left, in "" and US
		case 4:
			exclude = allBut(cc, "") // nothing is left
		}
		en, eup := eager.Pick(cc, exclude)
		ln, lup := lazy.Pick(cc, exclude)
		if (en == nil) != (ln == nil) || eup != lup || (en != nil && en.PeerID() != ln.PeerID()) {
			t.Fatalf("pick %d (%q, excluding %d): Pool %v %v, LazyPool %v %v", pick, cc, len(exclude), en, eup, ln, lup)
		}
	}
}
