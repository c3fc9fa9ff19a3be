package simnet

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
)

// FaultKind names one transport-fault mechanism the fault plane can inject
// into a fabric stream — the misbehaviours real residential exit nodes
// exhibit mid-transfer (Mani et al. 2018): hard resets, silent stalls,
// byte-trickling links, truncated responses, and corrupted payloads.
type FaultKind uint8

const (
	// FaultReset kills both directions of the stream: every further read
	// and write fails with ErrInjectedReset, as a TCP RST would.
	FaultReset FaultKind = iota
	// FaultStall delivers AfterBytes of the receive direction and then
	// fails every read with os.ErrDeadlineExceeded at once: what a reader
	// whose budget ran out behind a silent peer would see, without waiting
	// on any clock.
	FaultStall
	// FaultTrickle caps every read on the receive direction at Chunk
	// bytes — a slow link that releases bytes a few at a time.
	FaultTrickle
	// FaultTruncate delivers AfterBytes of the receive direction and then
	// reports a clean io.EOF, as if the peer closed mid-response.
	FaultTruncate
	// FaultCorrupt flips one bit pattern in every Every-th byte delivered
	// on the receive direction — an on-path link mangling payloads.
	FaultCorrupt
)

// String returns the kind's metric label.
func (k FaultKind) String() string {
	switch k {
	case FaultReset:
		return "reset"
	case FaultStall:
		return "stall"
	case FaultTrickle:
		return "trickle"
	case FaultTruncate:
		return "truncate"
	case FaultCorrupt:
		return "corrupt"
	}
	return "unknown"
}

// FaultSpec is one fault the plane may arm on a freshly dialed stream.
type FaultSpec struct {
	// Kind selects the mechanism.
	Kind FaultKind
	// Prob is the per-dial arming probability in [0, 1], drawn from the
	// plane's seeded stream in spec order.
	Prob float64
	// AfterBytes is the receive-direction byte count delivered before a
	// stall or truncation engages.
	AfterBytes int64
	// Chunk is the per-read byte cap of a trickle.
	Chunk int
	// Every is the corruption stride: every Every-th delivered byte is
	// mangled.
	Every int64
}

// FaultProfile is a named bundle of fault specs with a port filter — the
// unit cmd/tft's -chaos flag selects.
type FaultProfile struct {
	// Name identifies the profile ("flaky-exits", ...).
	Name string
	// Ports restricts arming to dials of these destination ports; nil
	// means every port, including the client↔super-proxy leg.
	Ports []uint16
	// Specs are the candidate faults, drawn independently per dial.
	Specs []FaultSpec
}

// chaosProfiles are the named fault mixes, in CLI listing order.
//
//   - flaky-exits: faults only on origin-facing ports (80/443), the legs
//     exit nodes fetch and tunnel over. The super proxy's retry and
//     breaker absorb most of these; the profile exercises the hardening.
//   - lossy-links: every link misbehaves, including client↔super proxy,
//     so faults surface to the measurement client and must be excluded
//     from violation denominators rather than miscounted.
//   - slow-network: trickled reads everywhere plus occasional stalls —
//     the pathological-latency world for soak runs.
var chaosProfiles = []FaultProfile{
	{
		Name:  "flaky-exits",
		Ports: []uint16{80, 443},
		Specs: []FaultSpec{
			{Kind: FaultReset, Prob: 0.015},
			{Kind: FaultStall, Prob: 0.02, AfterBytes: 64},
			{Kind: FaultTruncate, Prob: 0.02, AfterBytes: 96},
		},
	},
	{
		Name: "lossy-links",
		Specs: []FaultSpec{
			{Kind: FaultReset, Prob: 0.01},
			{Kind: FaultTruncate, Prob: 0.015, AfterBytes: 384},
			{Kind: FaultCorrupt, Prob: 0.03, Every: 128},
		},
	},
	{
		Name: "slow-network",
		Specs: []FaultSpec{
			{Kind: FaultTrickle, Prob: 0.25, Chunk: 7},
			{Kind: FaultStall, Prob: 0.015, AfterBytes: 512},
		},
	},
}

// ProfileByName resolves a named chaos profile.
func ProfileByName(name string) (FaultProfile, bool) {
	for _, p := range chaosProfiles {
		if p.Name == name {
			return p, true
		}
	}
	return FaultProfile{}, false
}

// ProfileNames lists the named chaos profiles in listing order.
func ProfileNames() []string {
	out := make([]string, len(chaosProfiles))
	for i, p := range chaosProfiles {
		out[i] = p.Name
	}
	return out
}

// FaultPlane schedules deterministic per-stream faults on a Fabric. Attach
// one via Fabric.Faults; every Dial whose destination port matches the
// profile draws each spec's probability from the plane's seeded stream (in
// spec order, under one lock, so the consumed stream depends only on dial
// order) and injects the hits on the dialer's stream end. With a single
// crawl worker the dial order — and therefore the entire fault schedule —
// is a pure function of (profile, seed).
//
// Injection goes through the ring's existing state-transition path
// (version bump, broadcast, readiness notify), so parked readers, pumping
// handlers, and TryRead/TryWrite splices all observe a fault exactly like
// any other stream event: no goroutines, no blocking, no timers. Every
// fault is armed at dial time and engages by byte count, never by elapsed
// time: no crawl advances the clock mid-session, so a timed fault could
// never be observed.
type FaultPlane struct {
	profile FaultProfile

	mu  sync.Mutex
	rng *rand.Rand

	onInject atomic.Pointer[func(kind string)]
}

// NewFaultPlane builds a plane for profile whose arming draws come from a
// stream derived from seed and the profile name. clock is read by nothing:
// a fault never waits (see FaultPlane). The parameter stays because
// scripts/tftbench passes one, and goes once the benchmark reaches the
// program through one seam (ROADMAP item 13).
func NewFaultPlane(profile FaultProfile, seed uint64, clock Clock) *FaultPlane {
	return &FaultPlane{
		profile: profile,
		rng:     SubRand(seed, "faultplane/"+profile.Name),
	}
}

// OnInject installs a hook called once per injected fault with the kind's
// metric label — the bridge to the run's fault_injected_total counter, and
// the plane's only report: it keeps no counts of its own. The hook runs on
// the dialing goroutine, inside Dial, and must not block.
func (p *FaultPlane) OnInject(fn func(kind string)) {
	if p == nil {
		return
	}
	p.onInject.Store(&fn)
}

// matches reports whether the profile applies to a dial of port.
func (p *FaultPlane) matches(port uint16) bool {
	if len(p.profile.Ports) == 0 {
		return true
	}
	for _, want := range p.profile.Ports {
		if want == port {
			return true
		}
	}
	return false
}

// arm draws the profile's specs for one freshly dialed stream and injects
// the hits on s — the dialer's end, so receive-direction
// faults affect the bytes the dialer reads. Nil-safe: a fabric without a
// plane pays one pointer check per dial.
func (p *FaultPlane) arm(s *Stream, port uint16) {
	if p == nil || !p.matches(port) {
		return
	}
	// One critical section for all draws keeps the consumed random stream
	// a function of dial order alone, however the hits are applied.
	var hits []FaultSpec
	p.mu.Lock()
	for _, spec := range p.profile.Specs {
		if p.rng.Float64() < spec.Prob {
			hits = append(hits, spec)
		}
	}
	p.mu.Unlock()
	for _, spec := range hits {
		p.fire(s, spec)
	}
}

// fire applies one armed fault to the stream and reports it.
func (p *FaultPlane) fire(s *Stream, spec FaultSpec) {
	switch spec.Kind {
	case FaultReset:
		s.InjectReset()
	case FaultStall:
		s.InjectStall(spec.AfterBytes)
	case FaultTrickle:
		s.InjectTrickle(spec.Chunk)
	case FaultTruncate:
		s.InjectTruncate(spec.AfterBytes)
	case FaultCorrupt:
		s.InjectCorrupt(spec.Every)
	}
	if fn := p.onInject.Load(); fn != nil {
		(*fn)(spec.Kind.String())
	}
}
