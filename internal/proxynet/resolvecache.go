package proxynet

import (
	"net/netip"
	"sync"
	"time"

	"github.com/tftproject/tft/internal/dnswire"
	"github.com/tftproject/tft/internal/simnet"
)

// Resolution-cache defaults. The positive TTL is deliberately short — the
// super proxy's job is existence checking, not authoritative caching — and
// negative answers expire even faster so a domain that comes into existence
// is noticed promptly.
const (
	DefaultCacheTTL     = 60 * time.Second
	DefaultCacheNegTTL  = 10 * time.Second
	DefaultCacheEntries = 4096
)

// cacheOutcome reports how a cached resolution was satisfied.
type cacheOutcome int

const (
	cacheMiss cacheOutcome = iota
	cacheHit
	cacheCoalesced
)

// ResolveCache is the super proxy's resolution cache: TTL'd positive and
// negative entries in a bounded LRU, with concurrent lookups for the same
// host coalesced into a single resolver query.
//
// Methodology note: the cache sits ONLY on the super-proxy-side existence
// check (§4.1 — the lookup behind the d2 gate's whitelisted egress). The
// exit node's resolver — the thing the experiments measure — is never
// consulted through it, and every experiment hostname (d1-*, d2-*, h-*,
// u-*) is globally unique per session, so experiment probes always take
// the miss path and reach the resolver exactly as before. A miss is
// therefore what the cache costs a crawl, and it costs one allocation: the
// entry, which is also the record of the lookup in flight. SERVFAIL is
// never cached: a transient upstream failure must not stick.
type ResolveCache struct {
	// Clock supplies the TTL timebase (the virtual clock in simulations).
	Clock simnet.Clock
	// TTL and NegTTL bound positive and NXDOMAIN entry lifetimes.
	TTL, NegTTL time.Duration
	// MaxEntries caps the LRU.
	MaxEntries int

	mu      sync.Mutex
	entries map[string]*cacheEntry // landed and in flight
	// lru is the ring of landed entries through their own links: lru.next
	// is the most recently used, lru.prev the next to evict.
	lru    cacheEntry
	landed int
}

// cacheEntry is one host's resolution. It is made when a lookup for the
// host starts, with inflight set; callers that find it so wait on wait,
// which the first of them makes. When the lookup lands ip and rcode are
// written, once, before wait closes, and an answer worth keeping joins the
// LRU. An expired entry is replaced, never reused, so whoever holds one can
// read the answer it landed with.
type cacheEntry struct {
	host       string
	ip         netip.Addr
	rcode      dnswire.RCode
	expires    time.Time
	inflight   bool
	wait       chan struct{}
	prev, next *cacheEntry
}

// NewResolveCache builds a cache with the default TTLs and size on clock.
func NewResolveCache(clock simnet.Clock) *ResolveCache {
	c := &ResolveCache{
		Clock:      clock,
		TTL:        DefaultCacheTTL,
		NegTTL:     DefaultCacheNegTTL,
		MaxEntries: DefaultCacheEntries,
		entries:    make(map[string]*cacheEntry),
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// ttlFor maps a response code to its cache lifetime; zero means "do not
// cache".
func (c *ResolveCache) ttlFor(rcode dnswire.RCode) time.Duration {
	switch rcode {
	case dnswire.RCodeSuccess:
		return c.TTL
	case dnswire.RCodeNXDomain:
		return c.NegTTL
	}
	return 0
}

// Resolve returns the cached answer for host or, on a miss, performs lookup
// (outside the cache lock) and remembers the result. Concurrent misses for
// the same host share one lookup call.
func (c *ResolveCache) Resolve(host string, lookup func(string) (netip.Addr, dnswire.RCode)) (netip.Addr, dnswire.RCode, cacheOutcome) {
	// Read the clock before taking the lock: interface calls inside the
	// critical section are opaque to the lockorder acquisition graph.
	now := c.Clock.Now()
	c.mu.Lock()
	if e, ok := c.entries[host]; ok {
		switch {
		case e.inflight:
			if e.wait == nil {
				e.wait = make(chan struct{})
			}
			wait := e.wait
			c.mu.Unlock()
			<-wait
			return e.ip, e.rcode, cacheCoalesced
		case now.Before(e.expires):
			c.unlink(e)
			c.pushFront(e)
			ip, rc := e.ip, e.rcode
			c.mu.Unlock()
			return ip, rc, cacheHit
		}
		c.unlink(e)
	}
	e := &cacheEntry{host: host, inflight: true}
	c.entries[host] = e
	c.mu.Unlock()

	ip, rcode := lookup(host)

	ttl := c.ttlFor(rcode)
	if ttl > 0 {
		now = c.Clock.Now()
	}
	c.mu.Lock()
	e.ip, e.rcode, e.inflight = ip, rcode, false
	wait := e.wait
	if ttl > 0 {
		e.expires = now.Add(ttl)
		c.pushFront(e)
		for c.MaxEntries > 0 && c.landed > c.MaxEntries {
			tail := c.lru.prev
			c.unlink(tail)
			delete(c.entries, tail.host)
		}
	} else {
		delete(c.entries, host)
	}
	c.mu.Unlock()
	if wait != nil {
		close(wait)
	}
	return ip, rcode, cacheMiss
}

// pushFront links a landed entry in as the most recently used. Caller holds
// c.mu.
func (c *ResolveCache) pushFront(e *cacheEntry) {
	e.prev, e.next = &c.lru, c.lru.next
	e.prev.next, e.next.prev = e, e
	c.landed++
}

// unlink takes a landed entry out of the LRU. Caller holds c.mu.
func (c *ResolveCache) unlink(e *cacheEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	c.landed--
}

// Len reports the current entry count.
func (c *ResolveCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.landed
}
