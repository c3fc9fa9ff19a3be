package proxynet

import (
	"errors"
	"hash/fnv"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tftproject/tft/internal/metrics"
	"github.com/tftproject/tft/internal/simnet"
)

// IsTransportFault reports whether err looks like a transport-layer
// interruption — an injected chaos fault or its real-world analogue
// (reset, stalled-past-deadline, truncated stream, torn-down connection) —
// rather than a protocol- or middlebox-level outcome. The super proxy uses
// it to report ErrPeerTransport instead of ErrPeerFetch, and the
// experiment drivers use it to exclude faulted probes from violation
// denominators.
func IsTransportFault(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, simnet.ErrInjectedReset) ||
		errors.Is(err, os.ErrDeadlineExceeded) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Breaker states. A node starts closed (healthy); breakerThreshold
// consecutive failures trip it open for a jittered cooldown; the first Allow
// after the cooldown admits exactly one half-open probe, whose outcome
// either resets the breaker or re-trips it with a doubled cooldown.
const (
	breakerClosed int32 = iota
	breakerOpen
	breakerHalfOpen
)

// The breaker's schedule: breakerThreshold consecutive failures trip it;
// the first open interval is breakerCooldown, and each re-trip doubles it
// up to breakerCooldownMax.
const (
	breakerThreshold   = 3
	breakerCooldown    = 30 * time.Second
	breakerCooldownMax = 5 * time.Minute
)

// nodeHealth is one exit node's breaker record. All fields are atomics:
// Failure and Success are called from tunnel-completion callbacks that run
// on the event core's readiness path, where blocking — a mutex included —
// is off limits (noblock).
type nodeHealth struct {
	state   atomic.Int32
	fails   atomic.Int32 // consecutive failures while closed
	trips   atomic.Int32 // lifetime trips; doubles the cooldown
	until   atomic.Int64 // unix-nano instant the open state expires
	probing atomic.Bool  // half-open: one probe admitted
}

// HealthTracker is the per-exit-node health score and circuit breaker
// feeding selectNode: nodes that keep failing mid-transfer are skipped for
// a seeded-jitter cooldown instead of burning the request's retry budget.
// All methods are nil-safe no-ops on a nil tracker (the default for worlds
// without chaos), and lock-free so tunnel-completion callbacks may report
// outcomes from the event core.
//
// Determinism: the cooldown jitter is derived by hashing (seed, zid, trip
// count), not from a shared generator, so the schedule is independent of
// goroutine interleaving and a fixed-seed run reproduces it exactly.
type HealthTracker struct {
	clock simnet.Clock
	seed  uint64
	nodes sync.Map // zid -> *nodeHealth

	mTrips  *metrics.Counter
	mProbes *metrics.Counter
	mResets *metrics.Counter
	gOpen   *metrics.Gauge // open breakers of every tracker on the registry
}

// NewHealthTracker builds a breaker on clock whose cooldown jitter derives
// from seed. m may be nil; the counters are nil-safe.
func NewHealthTracker(clock simnet.Clock, seed uint64, m *metrics.Registry) *HealthTracker {
	if clock == nil {
		clock = simnet.Real{}
	}
	return &HealthTracker{
		clock:   clock,
		seed:    seed,
		mTrips:  m.Counter("proxy_breaker_trips_total"),
		mProbes: m.Counter("proxy_breaker_halfopen_probes_total"),
		mResets: m.Counter("proxy_breaker_resets_total"),
		gOpen:   m.Gauge("proxy_breaker_open_nodes"),
	}
}

// Allow reports whether zid may serve an attempt right now: always for
// healthy nodes, never while the breaker is open and cooling down, and for
// exactly one probe at a time once the cooldown elapsed (half-open).
func (h *HealthTracker) Allow(zid string) bool {
	if h == nil {
		return true
	}
	v, ok := h.nodes.Load(zid)
	if !ok {
		return true
	}
	nh := v.(*nodeHealth)
	for {
		switch nh.state.Load() {
		case breakerClosed:
			return true
		case breakerOpen:
			if h.clock.Now().UnixNano() < nh.until.Load() {
				return false
			}
			if nh.state.CompareAndSwap(breakerOpen, breakerHalfOpen) {
				nh.probing.Store(true)
				h.gOpen.Add(-1)
				h.mProbes.Inc()
				return true
			}
			// Lost the transition race; re-read the state.
		case breakerHalfOpen:
			if nh.probing.CompareAndSwap(false, true) {
				h.mProbes.Inc()
				return true
			}
			return false
		}
	}
}

// Success reports a completed attempt on zid: the breaker resets to
// closed and the failure streak and cooldown doubling clear.
func (h *HealthTracker) Success(zid string) {
	if h == nil {
		return
	}
	v, ok := h.nodes.Load(zid)
	if !ok {
		return
	}
	nh := v.(*nodeHealth)
	prev := nh.state.Swap(breakerClosed)
	nh.fails.Store(0)
	nh.trips.Store(0)
	nh.probing.Store(false)
	if prev == breakerOpen {
		h.gOpen.Add(-1)
	}
	if prev != breakerClosed {
		h.mResets.Inc()
	}
}

// Failure reports a failed attempt on zid. breakerThreshold consecutive
// failures trip the breaker; a failed half-open probe re-trips it with a
// doubled cooldown.
func (h *HealthTracker) Failure(zid string) {
	if h == nil {
		return
	}
	v, ok := h.nodes.Load(zid)
	if !ok {
		v, _ = h.nodes.LoadOrStore(zid, &nodeHealth{})
	}
	nh := v.(*nodeHealth)
	switch nh.state.Load() {
	case breakerHalfOpen:
		nh.probing.Store(false)
		if nh.state.CompareAndSwap(breakerHalfOpen, breakerOpen) {
			h.trip(nh, zid)
		}
	case breakerClosed:
		if nh.fails.Add(1) >= breakerThreshold && nh.state.CompareAndSwap(breakerClosed, breakerOpen) {
			h.trip(nh, zid)
		}
	case breakerOpen:
		// A straggling attempt admitted before the trip; the cooldown
		// already covers it.
	}
}

// trip opens the breaker on nh: the cooldown doubles per trip (shared
// backoffDelay schedule) with a +/-25% jitter hashed from (seed, zid,
// trip) so it is deterministic yet decorrelated across nodes.
func (h *HealthTracker) trip(nh *nodeHealth, zid string) {
	trip := nh.trips.Add(1)
	d := backoffDelay(breakerCooldown, breakerCooldownMax, 0.25, int(trip-1), healthJitterDraw(h.seed, zid, trip))
	nh.until.Store(h.clock.Now().Add(d).UnixNano())
	nh.fails.Store(0)
	h.gOpen.Add(1)
	h.mTrips.Inc()
}

// OpenCount returns how many breakers are open: the
// proxy_breaker_open_nodes gauge, so 0 for a tracker built without a
// registry. Trackers that share a registry share the gauge, so it counts
// the open breakers of all of them, a finished run's included.
func (h *HealthTracker) OpenCount() int64 {
	if h == nil {
		return 0
	}
	return h.gOpen.Value()
}

// State returns zid's breaker state label — for tests and statusz, not the
// selection path.
func (h *HealthTracker) State(zid string) string {
	if h == nil {
		return "closed"
	}
	v, ok := h.nodes.Load(zid)
	if !ok {
		return "closed"
	}
	switch v.(*nodeHealth).state.Load() {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// healthJitterDraw hashes (seed, zid, trip) into a uniform draw in [0, 1).
func healthJitterDraw(seed uint64, zid string, trip int32) float64 {
	fh := fnv.New64a()
	fh.Write([]byte(zid))
	z := seed ^ fh.Sum64() ^ (uint64(trip) * 0x9e3779b97f4a7c15)
	z ^= z >> 33
	z *= 0xff51afd7ed558ccd
	z ^= z >> 33
	return float64(z>>11) / float64(1<<53)
}
