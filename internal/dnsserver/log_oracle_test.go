package dnsserver

import (
	"math/rand/v2"
	"net/netip"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/tftproject/tft/internal/dnswire"
)

// oracleLog is the query log as it was before it was striped: one map and
// one count (under one lock, which a sequential model has no use for).
type oracleLog struct {
	byName map[string][]Query
	total  int
}

func (o *oracleLog) record(q Query) {
	o.byName[q.Name] = append(o.byName[q.Name], q)
	o.total++
}

func resolveA(a *Authority, src netip.Addr, name string) {
	wire, _ := dnswire.NewQuery(1, name, dnswire.TypeA).Marshal()
	a.Handler()(src, wire)
}

// TestQueryLogMatchesSingleLockOracle drives the striped log and the
// single-map one through the same 10 000 seeded operations — queries,
// QueriesFor, Forget, QueryCount, the clock moving in between — and requires
// the same answer to every read.
func TestQueryLogMatchesSingleLockOracle(t *testing.T) {
	a, clock := testAuthority(t)
	oracle := &oracleLog{byName: map[string][]Query{}}
	rng := rand.New(rand.NewPCG(20160413, 19))
	for op := 0; op < 10000; op++ {
		name := "d1-" + strconv.Itoa(rng.IntN(60)) + ".probe.tft-example.net."
		switch r := rng.IntN(100); {
		case r < 50:
			src := netip.AddrFrom4([4]byte{10, 0, byte(op >> 8), byte(op)})
			resolveA(a, src, name)
			oracle.record(Query{Time: clock.Now(), Src: src, Name: name, Type: dnswire.TypeA})
		case r < 75:
			if got, want := a.QueriesFor(name), oracle.byName[name]; !slices.Equal(got, want) {
				t.Fatalf("op %d: QueriesFor(%s) = %v, the single-map log says %v", op, name, got, want)
			}
		case r < 90:
			a.Forget(name)
			delete(oracle.byName, name)
		case r < 95:
			if got := a.QueryCount(); got != oracle.total {
				t.Fatalf("op %d: QueryCount() = %d, the single-map log says %d", op, got, oracle.total)
			}
		default:
			clock.Advance(time.Second)
		}
	}
}

// queryAtThisDepth is the body of one hammering goroutine, a function of its
// own so that all of them call into the log from the same stack depth — as
// symmetric crawl workers do. The source address carries the arrival's
// sequence number.
//
//go:noinline
func queryAtThisDepth(a *Authority, worker, n int) {
	own := "d1-w" + strconv.Itoa(worker) + ".probe.tft-example.net."
	for i := 0; i < n; i++ {
		src := netip.AddrFrom4([4]byte{10, byte(worker), byte(i >> 8), byte(i)})
		resolveA(a, src, own)
		resolveA(a, src, "d1-shared.probe.tft-example.net.")
	}
}

// TestQueryLogConcurrent (run with -race): eight symmetric goroutines, each
// querying a name of its own and one name they all share. Counts are exact
// and every goroutine's arrivals keep their order, under its own name and
// within the shared one.
func TestQueryLogConcurrent(t *testing.T) {
	const workers, perWorker = 8, 500
	a, _ := testAuthority(t)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			queryAtThisDepth(a, w, perWorker)
		}()
	}
	wg.Wait()
	if got := a.QueryCount(); got != 2*workers*perWorker {
		t.Fatalf("QueryCount() = %d, want %d", got, 2*workers*perWorker)
	}
	inOrder := func(name string, qs []Query, want int) {
		t.Helper()
		if len(qs) != want {
			t.Fatalf("%s: %d queries logged, want %d", name, len(qs), want)
		}
		next := [workers]int{}
		for _, q := range qs {
			b := q.Src.As4()
			if w, i := int(b[1]), int(b[2])<<8|int(b[3]); i != next[w] {
				t.Fatalf("%s: worker %d's arrival %d logged where its arrival %d belongs", name, w, i, next[w])
			} else {
				next[w]++
			}
		}
	}
	for w := 0; w < workers; w++ {
		name := "d1-w" + strconv.Itoa(w) + ".probe.tft-example.net."
		inOrder(name, a.QueriesFor(name), perWorker)
	}
	inOrder("shared", a.QueriesFor("d1-shared.probe.tft-example.net."), workers*perWorker)
}
