package proxynet

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/metrics"
)

// NodeSource is the super proxy's view of the exit-node population: country-
// weighted random selection, zID lookup, and the advertised per-country
// counts the §3.2 crawler proportions its sampling by. Two implementations
// exist: *Pool (eager, every node resident) and *LazyPool (nodes
// materialized per pick from a recorded world spec, so a paper-scale
// population costs no idle memory per unrealized node).
type NodeSource interface {
	// Get returns the peer with the given zID.
	Get(zid string) (Peer, bool)
	// Pick selects a random available node, optionally restricted to a
	// country, excluding zIDs the current request already tried. A false
	// second return with a non-nil peer is the churn roll: the node was
	// selected but is transiently unavailable for this attempt.
	Pick(country geo.CountryCode, exclude map[string]bool) (Peer, bool)
	// Len reports the population size.
	Len() int
	// CountryCounts reports the advertised node count per country.
	CountryCounts() map[geo.CountryCode]int
	// SetPrepare installs a hook applied to every exit node before it is
	// handed out (and, for eager pools, to already-registered nodes).
	// Instrumentation uses it to stamp tracers without the source having to
	// know what a tracer is.
	SetPrepare(prepare func(*ExitNode))
}

var (
	_ NodeSource = (*Pool)(nil)
	_ NodeSource = (*LazyPool)(nil)
)

// LazyPool selects from a population of node specs without keeping the
// nodes resident: each pick materializes a fresh *ExitNode from the backing
// spec store and drops it when the caller is done. All cross-pick node
// state (resolver, violator path with its monitors) lives in components the
// materializer shares between instances, so two materializations of one
// zID behave identically. Nodes in a LazyPool are always online; churn is
// modeled by the same per-pick roll *Pool uses.
type LazyPool struct {
	mu        sync.Mutex
	rng       *rand.Rand
	churn     float64
	n         int
	byCountry map[geo.CountryCode][]int32

	materialize func(i int) *ExitNode
	index       func(zid string) (int, bool)
	// hooks is what instrumentation installs before a crawl and node reads
	// on every materialization: replaced whole under mu, read without it.
	hooks atomic.Pointer[poolHooks]
}

type poolHooks struct {
	prepare func(*ExitNode)
	// materialized counts node materializations — the pool's dominant cost
	// at paper scale, where every pick rebuilds a node from its spec. Nil
	// (the nil-safe Counter) until SetMetrics installs a registry.
	materialized *metrics.Counter
}

// NewLazyPool creates an empty lazy pool drawing selection randomness from
// rng. materialize builds the node for a spec index; index maps a zID back
// to its spec index (reporting false for unknown zIDs). Both run outside the
// pool lock, concurrently with themselves, on every path but a retry's
// exclusion probe: the lock covers which node a pick gets, not building it.
// Neither may call back into the pool.
func NewLazyPool(rng *rand.Rand, churn float64, materialize func(i int) *ExitNode, index func(zid string) (int, bool)) *LazyPool {
	p := &LazyPool{
		rng:         rng,
		churn:       churn,
		byCountry:   make(map[geo.CountryCode][]int32),
		materialize: materialize,
		index:       index,
	}
	p.hooks.Store(&poolHooks{})
	return p
}

// Register records the next spec's country and returns its index. Call
// once per spec, in spec order, while the world is being recorded.
func (p *LazyPool) Register(cc geo.CountryCode) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	i := p.n
	p.n++
	p.byCountry[cc] = append(p.byCountry[cc], int32(i))
	return i
}

// node materializes index i and applies the prepare hook. The pool lock
// covers the draw that chose i, not this: two materializations of one index
// are interchangeable, so building them needs no order.
func (p *LazyPool) node(i int) *ExitNode {
	h := p.hooks.Load()
	h.materialized.Inc()
	n := p.materialize(i)
	if h.prepare != nil {
		h.prepare(n)
	}
	return n
}

// SetMetrics points the pool's materialization counter
// (proxy_pool_materializations_total) at reg. Instrumentation installs it
// alongside SetPrepare; a nil registry leaves the counter a no-op.
func (p *LazyPool) SetMetrics(reg *metrics.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := *p.hooks.Load()
	h.materialized = reg.Counter("proxy_pool_materializations_total")
	p.hooks.Store(&h)
}

// Get implements NodeSource.
func (p *LazyPool) Get(zid string) (Peer, bool) {
	i, ok := p.index(zid)
	if !ok || i < 0 || i >= p.Len() {
		return nil, false
	}
	return p.node(i), true
}

// Pick implements NodeSource with the same bounded-probe selection and
// churn semantics as Pool.Pick.
func (p *LazyPool) Pick(country geo.CountryCode, exclude map[string]bool) (Peer, bool) {
	p.mu.Lock()
	n, i, up := p.draw(country, exclude)
	p.mu.Unlock()
	if i < 0 {
		return nil, false
	}
	if n == nil {
		n = p.node(i)
	}
	return n, up
}

// draw settles a pick (see pick): the spec index (negative when nothing is
// eligible) and the churn roll. A first attempt excludes nothing and draw
// leaves n nil for the caller to build outside the lock; telling whether a
// retry's pick is excluded takes the node's zID, so that rare path builds it
// here. Caller holds p.mu.
func (p *LazyPool) draw(country geo.CountryCode, exclude map[string]bool) (n *ExitNode, i int, up bool) {
	var candidates []int32
	total := p.n
	if country != "" {
		candidates = p.byCountry[country]
		total = len(candidates)
	}
	at := func(j int) int {
		if candidates != nil {
			return int(candidates[j])
		}
		return j
	}
	j, up := pick(p.rng, p.churn, total, func(j int) bool {
		if len(exclude) == 0 {
			return false
		}
		n = p.node(at(j))
		return exclude[n.ZID]
	})
	if j < 0 {
		return nil, -1, false
	}
	return n, at(j), up
}

// Len implements NodeSource.
func (p *LazyPool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

// CountryCounts implements NodeSource.
func (p *LazyPool) CountryCounts() map[geo.CountryCode]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return countryCounts(p.byCountry)
}

// countryCounts is CountryCounts over either pool's per-country index.
func countryCounts[E any](byCountry map[geo.CountryCode][]E) map[geo.CountryCode]int {
	out := make(map[geo.CountryCode]int, len(byCountry))
	for cc, nodes := range byCountry {
		out[cc] = len(nodes)
	}
	return out
}

// SetPrepare implements NodeSource.
func (p *LazyPool) SetPrepare(prepare func(*ExitNode)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := *p.hooks.Load()
	h.prepare = prepare
	p.hooks.Store(&h)
}
