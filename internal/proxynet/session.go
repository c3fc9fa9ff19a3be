package proxynet

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tftproject/tft/internal/simnet"
)

// SessionTTL is how long Luminati keeps a session number pinned to the same
// exit node (§2.3: "within 60 seconds").
const SessionTTL = 60 * time.Second

// sessionCap bounds the pin table. Experiment sessions are short-lived
// (a handful of requests each) but the virtual clock may not advance during
// a crawl, so TTL expiry alone cannot reclaim the entries; without a cap a
// crawl would retain one pin per session it ever spent. Sessions in use at
// once number at most the crawl's workers, so 512 a stripe is far more than
// are ever live and eviction only removes pins that will never be consulted
// again.
const sessionCap = 1 << 13

// sessionStripes is how many independently locked parts the pin table is in.
const sessionStripes = 16

// sessionTable maps client session numbers to exit-node zIDs with a TTL and
// a FIFO size cap. Only the session that owns a key ever asks for it, so the
// table is striped by key: concurrent sessions meet on a lock only when
// their keys hash alike, and growing or compacting one stripe's eviction
// list holds up that stripe alone. Each stripe evicts in its own insertion
// order past its share of the cap.
type sessionTable struct {
	clock   simnet.Clock
	ttl     time.Duration
	cap     int // of one stripe
	seed    maphash.Seed
	stripes [sessionStripes]sessionStripe
}

// sessionStripe is one part of the table.
type sessionStripe struct {
	mu      sync.Mutex
	entries map[string]sessionEntry // by appendSessionKey
	seq     uint64
	// order holds insertion records for cap eviction; head is the next
	// eviction candidate. Refreshing a pin does not move it; a slot whose
	// seq no longer matches the live entry is stale and skipped.
	order []sessionSlot
	head  int
	// live is len(entries), published under mu for len to read without it.
	live atomic.Int64

	_ [64]byte // the next stripe's lock is on another cache line
}

type sessionSlot struct {
	key string
	seq uint64
}

type sessionEntry struct {
	zid     string
	expires time.Time
	seq     uint64
}

func newSessionTable(clock simnet.Clock) *sessionTable {
	st := &sessionTable{clock: clock, ttl: SessionTTL, cap: sessionCap / sessionStripes, seed: maphash.MakeSeed()}
	for i := range st.stripes {
		st.stripes[i].entries = make(map[string]sessionEntry)
	}
	return st
}

// appendSessionKey renders the key of one customer's session. get and put
// render it on their stacks: a map lookup under string(bytes) converts
// nothing, so only a new pin pays for a key string.
func appendSessionKey(b []byte, user, session string) []byte {
	return append(append(append(b, user...), '/'), session...)
}

// stripe returns the part of the table key lives in.
//
//tftlint:hotpath
func (st *sessionTable) stripe(key []byte) *sessionStripe {
	return &st.stripes[maphash.Bytes(st.seed, key)%sessionStripes]
}

// get returns the zID the customer's session is pinned to, when the pin is
// still fresh.
//
//tftlint:hotpath
func (st *sessionTable) get(user, session string) (string, bool) {
	var buf [64]byte
	key := appendSessionKey(buf[:0], user, session)
	now := st.clock.Now()
	s := st.stripe(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[string(key)]
	if !ok {
		return "", false
	}
	if now.After(e.expires) {
		delete(s.entries, string(key))
		s.live.Store(int64(len(s.entries)))
		return "", false
	}
	return e.zid, true
}

// put pins the customer's session to zid, refreshing the TTL.
func (st *sessionTable) put(user, session, zid string) {
	var buf [64]byte
	lookup := appendSessionKey(buf[:0], user, session)
	expires := st.clock.Now().Add(st.ttl)
	s := st.stripe(lookup)
	s.mu.Lock()
	defer s.mu.Unlock()
	var key string
	e, ok := s.entries[string(lookup)]
	if ok {
		// A refresh goes in under the key string the table already holds:
		// slots are appended in seq order, one per seq, and a live entry's
		// slot is never behind head.
		key = s.order[s.head+int(e.seq-s.order[s.head].seq)].key
	} else {
		key = string(lookup)
		s.seq++
		e.seq = s.seq
		s.order = append(s.order, sessionSlot{key: key, seq: e.seq})
	}
	s.entries[key] = sessionEntry{zid: zid, expires: expires, seq: e.seq}
	for st.cap > 0 && len(s.entries) > st.cap && s.head < len(s.order) {
		slot := s.order[s.head]
		s.order[s.head] = sessionSlot{}
		s.head++
		if live, ok := s.entries[slot.key]; ok && live.seq == slot.seq {
			delete(s.entries, slot.key)
		}
	}
	if s.head > 0 && s.head*2 > len(s.order) {
		s.order = append(s.order[:0], s.order[s.head:]...)
		s.head = 0
	}
	s.live.Store(int64(len(s.entries)))
}

// len reports live entries. It takes no stripe's lock.
func (st *sessionTable) len() int {
	n := 0
	for i := range st.stripes {
		n += int(st.stripes[i].live.Load())
	}
	return n
}
