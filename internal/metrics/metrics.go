// Package metrics is the crawl engine's observability substrate: a small,
// dependency-free registry of counters, gauges, fixed-bucket histograms,
// and labeled counters.
//
// Two properties shape the design:
//
//   - Nil-safety: every method works on a nil receiver as a no-op, so
//     instrumented code paths (the crawler, the budget, the super proxy)
//     never branch on "is telemetry enabled" — an un-threaded registry
//     simply costs a nil check.
//   - Concurrent sessions do not serialize on telemetry: an existing
//     instrument is found by name without a lock, counters stripe their
//     adds across padded atomic cells chosen by the calling goroutine's
//     stack, and labeled counters shard their maps by label hash.
package metrics

import (
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"
)

// numShards stripes hot-path writes; a power of two so that a stripe is the
// top shardBits of a hash.
const (
	shardBits = 4
	numShards = 1 << shardBits
)

// cell is a padded atomic counter; the padding keeps adjacent shards on
// separate cache lines.
type cell struct {
	n atomic.Int64
	_ [56]byte
}

// ShardIndex picks one of 16 stripes for the goroutine whose stack p points
// into (the pointer itself, not its contents, is the entropy source). A
// goroutine keeps its stripe for as long as it calls from one depth of an
// unmoved stack. Stacks are aligned to their size, so two goroutines at the
// same depth of the same code — crawl workers — differ only in the address
// bits above that alignment: those are the bits hashed, the low ones being
// the same for everybody. There is no goroutine identity to do better with,
// so two workers still land on one stripe in one process out of 16; such a
// process pays for a shared line, and medians over fresh processes absorb it.
//
//tftlint:hotpath
func ShardIndex(p *byte) int {
	// Above bit 11: the smallest stack is 2 KB. Fibonacci hashing, top bits.
	return int((uint64(uintptr(unsafePointer(p))>>11) * 0x9E3779B97F4A7C15) >> (64 - shardBits))
}

// Counter is a lock-free counter striped by caller (see ShardIndex).
type Counter struct {
	shards [numShards]cell
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	var probe byte
	c.shards[ShardIndex(&probe)].n.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value sums the shards.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.shards {
		total += c.shards[i].n.Load()
	}
	return total
}

// Gauge is a settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed bucket boundaries. Bucket i
// counts observations v <= Bounds[i]; the final implicit bucket counts the
// rest.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // math.Float64bits-encoded running sum
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	idx := sort.SearchFloat64s(h.bounds, v)
	h.counts[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := float64frombits(old) + v
		if h.sum.CompareAndSwap(old, float64bits(next)) {
			return
		}
	}
}

// Count reports how many observations were recorded.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the total of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return float64frombits(h.sum.Load())
}

// labeledShard is one lock-guarded slice of a LabeledCounter's key space.
type labeledShard struct {
	mu sync.Mutex
	m  map[string]int64
}

// LabeledCounter is a counter keyed by a label (country code, AS number,
// zID). The key space shards across independently locked maps so
// concurrent sessions touching different labels rarely contend.
type LabeledCounter struct {
	seed   maphash.Seed
	shards [numShards]labeledShard
}

func newLabeledCounter() *LabeledCounter {
	lc := &LabeledCounter{seed: maphash.MakeSeed()}
	for i := range lc.shards {
		lc.shards[i].m = make(map[string]int64)
	}
	return lc
}

func (lc *LabeledCounter) shard(label string) *labeledShard {
	return &lc.shards[maphash.String(lc.seed, label)&(numShards-1)]
}

// Add increments label's count by n.
func (lc *LabeledCounter) Add(label string, n int64) {
	if lc == nil {
		return
	}
	s := lc.shard(label)
	s.mu.Lock()
	s.m[label] += n
	s.mu.Unlock()
}

// Inc increments label's count by one.
func (lc *LabeledCounter) Inc(label string) { lc.Add(label, 1) }

// Value reads label's count.
func (lc *LabeledCounter) Value(label string) int64 {
	if lc == nil {
		return 0
	}
	s := lc.shard(label)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[label]
}

// Values copies the full label->count map.
func (lc *LabeledCounter) Values() map[string]int64 {
	if lc == nil {
		return nil
	}
	out := make(map[string]int64)
	for i := range lc.shards {
		s := &lc.shards[i]
		s.mu.Lock()
		for k, v := range s.m {
			out[k] = v
		}
		s.mu.Unlock()
	}
	return out
}

// Registry names and owns a process's metrics; construct with NewRegistry.
// A nil *Registry is a valid no-op sink: every accessor returns a nil
// instrument whose methods do nothing.
//
// A process creates a few dozen instruments, each once, and then looks them
// up by name on every request, so a lookup reads an immutable map without a
// lock and a creation replaces that map under mu.
type Registry struct {
	mu         sync.Mutex // orders creations
	counters   byName[Counter]
	gauges     byName[Gauge]
	histograms byName[Histogram]
	labeled    byName[LabeledCounter]
}

// byName is one kind of instrument, by name.
type byName[T any] struct {
	m atomic.Pointer[map[string]*T] // never written once stored
}

// all returns the instruments created so far; the caller must not write to
// the map.
func (b *byName[T]) all() map[string]*T {
	if m := b.m.Load(); m != nil {
		return *m
	}
	return nil
}

// add publishes a copy of the map with v in it. Caller holds Registry.mu.
func (b *byName[T]) add(name string, v *T) {
	old := b.all()
	next := make(map[string]*T, len(old)+1)
	for k, x := range old {
		next[k] = x
	}
	next[name] = v
	b.m.Store(&next)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the named counter, creating it on first use.
//
//tftlint:hotpath
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return get(&r.mu, &r.counters, name, func() *Counter { return new(Counter) })
}

// Gauge returns the named gauge, creating it on first use.
//
//tftlint:hotpath
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return get(&r.mu, &r.gauges, name, func() *Gauge { return new(Gauge) })
}

// Histogram returns the named histogram, creating it with bounds on first
// use. Later calls ignore bounds and return the existing histogram.
//
//tftlint:hotpath
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return get(&r.mu, &r.histograms, name, func() *Histogram { return newHistogram(bounds) })
}

// Labeled returns the named labeled counter, creating it on first use.
//
//tftlint:hotpath
func (r *Registry) Labeled(name string) *LabeledCounter {
	if r == nil {
		return nil
	}
	return get(&r.mu, &r.labeled, name, newLabeledCounter)
}

// get is every lookup's get-or-create: the instrument b holds under name,
// or, on first use, the one create makes, published under mu. A hit reads
// the published map without a lock and allocates nothing. A miss runs
// create before taking mu (a call through a func value under a lock is
// opaque to the lock-order check) and, if another creator published the
// name first, drops its own for that one.
//
//tftlint:hotpath
func get[T any](mu *sync.Mutex, b *byName[T], name string, create func() *T) *T {
	if v := b.all()[name]; v != nil {
		return v
	}
	v := create()
	mu.Lock()
	defer mu.Unlock()
	if first := b.all()[name]; first != nil {
		return first
	}
	b.add(name, v)
	return v
}
