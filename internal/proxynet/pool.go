package proxynet

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"github.com/tftproject/tft/internal/geo"
)

// Pool is the population of exit nodes the super proxy selects from. The
// network is "very dynamic" (§3.2 footnote): a churn probability makes
// selected nodes transiently unavailable, exercising Luminati's retry
// behaviour.
type Pool struct {
	mu        sync.Mutex
	rng       *rand.Rand
	peers     []Peer
	byZID     map[string]Peer
	byCountry map[geo.CountryCode][]Peer
	// churn is the probability a selected node turns out unavailable for
	// this attempt.
	churn float64
	// prepare, when set, is applied to every in-process exit node added to
	// the pool (see NodeSource.SetPrepare).
	prepare func(*ExitNode)
}

// NewPool creates an empty pool drawing selection randomness from rng.
func NewPool(rng *rand.Rand, churn float64) *Pool {
	return &Pool{
		rng:       rng,
		byZID:     make(map[string]Peer),
		byCountry: make(map[geo.CountryCode][]Peer),
		churn:     churn,
	}
}

// Add registers a peer. Duplicate zIDs are an error: zIDs are persistent
// unique identifiers.
func (p *Pool) Add(n Peer) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.byZID[n.PeerID()]; ok {
		return fmt.Errorf("proxynet: duplicate zID %q", n.PeerID())
	}
	if en, ok := n.(*ExitNode); ok && p.prepare != nil {
		p.prepare(en)
	}
	p.peers = append(p.peers, n)
	p.byZID[n.PeerID()] = n
	p.byCountry[n.PeerCountry()] = append(p.byCountry[n.PeerCountry()], n)
	return nil
}

// Get returns the peer with the given zID.
func (p *Pool) Get(zid string) (Peer, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n, ok := p.byZID[zid]
	return n, ok
}

// Len returns the pool size.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.peers)
}

// Pick selects a random available node, optionally restricted to a country,
// excluding zIDs the current request already tried. It models the churn
// roll: a node that fails the roll is skipped (and should be recorded as a
// failed attempt by the caller). Returns nil when nothing matches.
func (p *Pool) Pick(country geo.CountryCode, exclude map[string]bool) (Peer, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	candidates := p.peers
	if country != "" {
		candidates = p.byCountry[country]
	}
	j, up := pick(p.rng, p.churn, len(candidates), func(j int) bool {
		n := candidates[j]
		return exclude[n.PeerID()] || !n.Online()
	})
	if j < 0 {
		return nil, false
	}
	return candidates[j], up
}

// pick is the node selection both pools run, drawing rng in the order a
// fixed-seed run depends on: up to 32 uniform probes of the positions
// [0, total), passing over those skip rejects, and on the first it accepts
// the churn roll; when every probe was passed over (dense exclusion), a scan
// in order. It returns the chosen position, -1 when skip rejects them all,
// and whether the node is up — false is the churn roll: selected, but
// transiently unavailable for this attempt.
func pick(rng *rand.Rand, churn float64, total int, skip func(j int) bool) (int, bool) {
	// Bounded random probing keeps selection O(1) on the fast path.
	for probe := 0; probe < 32 && total > 0; probe++ {
		j := rng.IntN(total)
		if skip(j) {
			continue
		}
		return j, !(churn > 0 && rng.Float64() < churn)
	}
	for j := 0; j < total; j++ {
		if !skip(j) {
			return j, true
		}
	}
	return -1, false
}

// CountryCounts reports how many nodes the service advertises per country —
// what §3.2's crawler proportions its sampling by.
func (p *Pool) CountryCounts() map[geo.CountryCode]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return countryCounts(p.byCountry)
}

// SetPrepare implements NodeSource: the hook runs immediately on every
// registered in-process node and on each node added afterwards.
func (p *Pool) SetPrepare(prepare func(*ExitNode)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.prepare = prepare
	if prepare == nil {
		return
	}
	for _, peer := range p.peers {
		if n, ok := peer.(*ExitNode); ok {
			prepare(n)
		}
	}
}
