package origin

import (
	"math/rand/v2"
	"net/netip"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/tftproject/tft/internal/simnet"
)

// oracleLog is the request log as it was before it was striped: one map and
// one count (under one lock, which a sequential model has no use for).
type oracleLog struct {
	byHost map[string][]Request
	total  int
}

func (o *oracleLog) record(r Request) {
	o.byHost[r.Host] = append(o.byHost[r.Host], r)
	o.total++
}

// TestRequestLogMatchesSingleLockOracle drives the striped log and the
// single-map one through the same 10 000 seeded operations — requests,
// RequestsFor, Forget, RequestCount, the clock moving in between — and
// requires the same answer to every read.
func TestRequestLogMatchesSingleLockOracle(t *testing.T) {
	clock := simnet.NewVirtual(t0)
	s := NewServer(clock)
	oracle := &oracleLog{byHost: map[string][]Request{}}
	rng := rand.New(rand.NewPCG(20160413, 19))
	for op := 0; op < 10000; op++ {
		host := "h-" + strconv.Itoa(rng.IntN(60)) + ".probe.example"
		switch r := rng.IntN(100); {
		case r < 50:
			src := netip.AddrFrom4([4]byte{10, 0, byte(op >> 8), byte(op)})
			s.Handle(src, getReq(host, "/object.css"))
			oracle.record(Request{Time: clock.Now(), Src: src, Host: host, Path: "/object.css"})
		case r < 75:
			if got, want := s.RequestsFor(host), oracle.byHost[host]; !slices.Equal(got, want) {
				t.Fatalf("op %d: RequestsFor(%s) = %v, the single-map log says %v", op, host, got, want)
			}
		case r < 90:
			s.Forget(host)
			delete(oracle.byHost, host)
		case r < 95:
			if got := s.RequestCount(); got != oracle.total {
				t.Fatalf("op %d: RequestCount() = %d, the single-map log says %d", op, got, oracle.total)
			}
		default:
			clock.Advance(time.Second)
		}
	}
}

// requestAtThisDepth is the body of one hammering goroutine, a function of
// its own so that all of them call into the log from the same stack depth —
// as symmetric crawl workers do. The source address carries the arrival's
// sequence number.
//
//go:noinline
func requestAtThisDepth(s *Server, worker, n int) {
	own := "h-w" + strconv.Itoa(worker) + ".probe.example"
	for i := 0; i < n; i++ {
		src := netip.AddrFrom4([4]byte{10, byte(worker), byte(i >> 8), byte(i)})
		s.Handle(src, getReq(own, "/"))
		s.Handle(src, getReq("h-shared.probe.example", "/"))
	}
}

// TestRequestLogConcurrent (run with -race): eight symmetric goroutines,
// each requesting a host of its own and one host they all share. Counts are
// exact and every goroutine's arrivals keep their order, under its own host
// and within the shared one.
func TestRequestLogConcurrent(t *testing.T) {
	const workers, perWorker = 8, 500
	s := NewServer(simnet.NewVirtual(t0))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			requestAtThisDepth(s, w, perWorker)
		}()
	}
	wg.Wait()
	if got := s.RequestCount(); got != 2*workers*perWorker {
		t.Fatalf("RequestCount() = %d, want %d", got, 2*workers*perWorker)
	}
	inOrder := func(host string, reqs []Request, want int) {
		t.Helper()
		if len(reqs) != want {
			t.Fatalf("%s: %d requests logged, want %d", host, len(reqs), want)
		}
		next := [workers]int{}
		for _, r := range reqs {
			b := r.Src.As4()
			if w, i := int(b[1]), int(b[2])<<8|int(b[3]); i != next[w] {
				t.Fatalf("%s: worker %d's arrival %d logged where its arrival %d belongs", host, w, i, next[w])
			} else {
				next[w]++
			}
		}
	}
	for w := 0; w < workers; w++ {
		host := "h-w" + strconv.Itoa(w) + ".probe.example"
		inOrder(host, s.RequestsFor(host), perWorker)
	}
	inOrder("h-shared.probe.example", s.RequestsFor("h-shared.probe.example"), workers*perWorker)
}
