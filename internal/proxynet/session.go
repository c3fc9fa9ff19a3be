package proxynet

import (
	"sync"
	"time"

	"github.com/tftproject/tft/internal/simnet"
)

// SessionTTL is how long Luminati keeps a session number pinned to the same
// exit node (§2.3: "within 60 seconds").
const SessionTTL = 60 * time.Second

// sessionCap bounds the pin table. Experiment sessions are short-lived
// (a handful of requests each) but the virtual clock may not advance during
// a crawl, so TTL expiry alone cannot reclaim the entries; without a cap a
// paper-scale crawl would retain one pin per session forever. The cap is
// far larger than any plausible set of concurrently live sessions, so
// eviction only ever removes pins that will never be consulted again.
const sessionCap = 1 << 17

// sessionTable maps client session numbers to exit-node zIDs with a TTL and
// a FIFO size cap.
type sessionTable struct {
	clock simnet.Clock
	ttl   time.Duration
	cap   int

	mu      sync.Mutex
	entries map[string]sessionEntry // by appendSessionKey
	seq     uint64
	// order holds insertion records for cap eviction; head is the next
	// eviction candidate. Refreshing a pin does not move it; a slot whose
	// seq no longer matches the live entry is stale and skipped.
	order []sessionSlot
	head  int
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
	return &sessionTable{clock: clock, ttl: SessionTTL, cap: sessionCap,
		entries: make(map[string]sessionEntry)}
}

// appendSessionKey renders the key of one customer's session. get and put
// render it on their stacks: a map lookup under string(bytes) converts
// nothing, so only a new pin pays for a key string.
func appendSessionKey(b []byte, user, session string) []byte {
	return append(append(append(b, user...), '/'), session...)
}

// get returns the zID the customer's session is pinned to, when the pin is
// still fresh.
func (st *sessionTable) get(user, session string) (string, bool) {
	var buf [64]byte
	key := appendSessionKey(buf[:0], user, session)
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.entries[string(key)]
	if !ok {
		return "", false
	}
	if st.clock.Now().After(e.expires) {
		delete(st.entries, string(key))
		return "", false
	}
	return e.zid, true
}

// put pins the customer's session to zid, refreshing the TTL.
func (st *sessionTable) put(user, session, zid string) {
	var buf [64]byte
	lookup := appendSessionKey(buf[:0], user, session)
	st.mu.Lock()
	defer st.mu.Unlock()
	var key string
	e, ok := st.entries[string(lookup)]
	if ok {
		// A refresh goes in under the key string the table already holds:
		// slots are appended in seq order, one per seq, and a live entry's
		// slot is never behind head.
		key = st.order[st.head+int(e.seq-st.order[st.head].seq)].key
	} else {
		key = string(lookup)
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

// len reports live entries.
func (st *sessionTable) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.entries)
}
