package proxynet

import (
	"math/rand/v2"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/tftproject/tft/internal/simnet"
)

// oracleSessionTable is the pin table as it was before it was striped: one
// lock, one map, one insertion-order list. The striped table must answer as
// one of these per stripe would.
type oracleSessionTable struct {
	clock simnet.Clock
	ttl   time.Duration
	cap   int

	mu      sync.Mutex
	entries map[string]sessionEntry
	seq     uint64
	order   []sessionSlot
	head    int
}

func (st *oracleSessionTable) get(user, session string) (string, bool) {
	key := string(appendSessionKey(nil, user, session))
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.entries[key]
	if !ok {
		return "", false
	}
	if st.clock.Now().After(e.expires) {
		delete(st.entries, key)
		return "", false
	}
	return e.zid, true
}

func (st *oracleSessionTable) put(user, session, zid string) {
	key := string(appendSessionKey(nil, user, session))
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.entries[key]
	if !ok {
		st.seq++
		e.seq = st.seq
		st.order = append(st.order, sessionSlot{key: key, seq: e.seq})
	}
	st.entries[key] = sessionEntry{zid: zid, expires: st.clock.Now().Add(st.ttl), seq: e.seq}
	for st.cap > 0 && len(st.entries) > st.cap && st.head < len(st.order) {
		slot := st.order[st.head]
		st.order[st.head] = sessionSlot{}
		st.head++
		if live, ok := st.entries[slot.key]; ok && live.seq == slot.seq {
			delete(st.entries, slot.key)
		}
	}
	if st.head > 0 && st.head*2 > len(st.order) {
		st.order = append(st.order[:0], st.order[st.head:]...)
		st.head = 0
	}
}

// TestSessionTableMatchesSingleLockOracle drives the striped table and the
// single-lock one through the same 10 000 seeded operations — new pins,
// refreshes, lookups, clock advances past the TTL, evictions past a small
// cap — and requires the same answer to every lookup and the same live
// count after every step. Eviction order is a stripe's own, so the model is
// one oracle per stripe, each with the stripe's cap.
func TestSessionTableMatchesSingleLockOracle(t *testing.T) {
	clock := simnet.NewVirtual(t0)
	st := newSessionTable(clock)
	st.cap = 4
	var oracles [sessionStripes]*oracleSessionTable
	for i := range oracles {
		oracles[i] = &oracleSessionTable{clock: clock, ttl: st.ttl, cap: st.cap, entries: map[string]sessionEntry{}}
	}
	oracleFor := func(user, session string) *oracleSessionTable {
		stripe := st.stripe(appendSessionKey(nil, user, session))
		for i := range st.stripes {
			if stripe == &st.stripes[i] {
				return oracles[i]
			}
		}
		panic("stripe outside the table")
	}
	rng := rand.New(rand.NewPCG(20160413, 19))
	for op := 0; op < 10000; op++ {
		user := "cust" + strconv.Itoa(rng.IntN(3))
		session := strconv.Itoa(rng.IntN(200)) // ~12 keys a stripe: three times its cap
		switch r := rng.IntN(100); {
		case r < 45:
			zid := "z" + strconv.Itoa(op)
			st.put(user, session, zid)
			oracleFor(user, session).put(user, session, zid)
		case r < 98:
			zid, ok := st.get(user, session)
			wantZID, wantOK := oracleFor(user, session).get(user, session)
			if zid != wantZID || ok != wantOK {
				t.Fatalf("op %d: get(%s, %s) = %q, %v; the single-lock table says %q, %v", op, user, session, zid, ok, wantZID, wantOK)
			}
		default:
			clock.Advance(time.Duration(rng.IntN(45)) * time.Second)
		}
		live := 0
		for _, o := range oracles {
			live += len(o.entries)
		}
		if st.len() != live {
			t.Fatalf("op %d: %d live pins, the single-lock tables hold %d", op, st.len(), live)
		}
	}
}

// pinAtThisDepth is the body of one hammering goroutine, a function of its
// own so that all of them call into the table from the same stack depth —
// as symmetric crawl workers do.
//
//go:noinline
func pinAtThisDepth(t *testing.T, st *sessionTable, worker int) {
	own := "own" + strconv.Itoa(worker)
	for i := 0; i < 2000; i++ {
		zid := "z" + strconv.Itoa(i)
		st.put("cust", own, zid)
		if got, ok := st.get("cust", own); !ok || got != zid {
			t.Errorf("worker %d: own pin reads %q, %v after put(%q)", worker, got, ok, zid)
			return
		}
		st.put("cust", "shared", zid)
		if got, ok := st.get("cust", "shared"); !ok || got == "" {
			t.Errorf("worker %d: shared pin lost", worker)
			return
		}
	}
}

// TestSessionTableConcurrent (run with -race): eight symmetric goroutines,
// each with a key of its own and one key they all share.
func TestSessionTableConcurrent(t *testing.T) {
	st := newSessionTable(simnet.NewVirtual(t0))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pinAtThisDepth(t, st, w)
		}()
	}
	wg.Wait()
	if st.len() != 8+1 {
		t.Errorf("len() = %d, want the eight own pins and the shared one", st.len())
	}
}
