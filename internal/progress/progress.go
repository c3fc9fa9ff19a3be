// Package progress is the flight recorder for long-running crawls: a
// lock-sharded Tracker the crawl workers report into, a clock-injected
// Sampler that periodically snapshots throughput, ETA, and runtime
// watermarks into the tracker's latest sample, the progress gauges and
// optionally a JSONL checkpoint stream, a stall watchdog, and the
// RunManifest written alongside every dataset release.
//
// The package follows the same two design rules as internal/metrics:
//
//   - Nil-safety: every method works on a nil *Tracker as a no-op, so the
//     crawl hot path never branches on "is the flight recorder enabled".
//   - Lock sharding: each worker shard owns a padded cell of atomic
//     counters, so concurrent sessions never serialize on progress
//     reporting; aggregates are computed at snapshot time by summing the
//     cells.
//
// Nothing in this package touches the crawl's RNG or its measured output:
// enabling the recorder cannot perturb a fixed-seed run.
package progress

import (
	"runtime"
	"sync/atomic"
)

// shardCell is one worker shard's progress counters, padded so adjacent
// shards do not share a cache line (7 x 8 bytes + 8 pad = 64).
type shardCell struct {
	done       atomic.Int64
	probes     atomic.Int64
	violations atomic.Int64
	failures   atomic.Int64
	discarded  atomic.Int64
	duplicates atomic.Int64
	faults     atomic.Int64
	_          [8]byte
}

// load reads the cell's counters. The shard's worker counts a probe before
// its outcome and a completion before its violation, so the reads run the
// other way round: a snapshot racing the worker can show a probe still in
// flight, never an outcome without its probe.
func (c *shardCell) load() Counts {
	return Counts{
		Violations: c.violations.Load(),
		Done:       c.done.Load(),
		Failures:   c.failures.Load(),
		Discarded:  c.discarded.Load(),
		Duplicates: c.duplicates.Load(),
		Faults:     c.faults.Load(),
		Probes:     c.probes.Load(),
	}
}

// runState is the per-crawl portion of a Tracker, swapped atomically by
// Begin so a long-lived Tracker can recycle across a campaign's runs.
type runState struct {
	experiment string
	total      int64
	workers    int
	shards     []shardCell
}

// Tracker accumulates a crawl's live progress. Workers report through the
// shard-indexed methods; the Sampler and /progressz read a consistent-ish
// view through Snapshot. All methods are safe for concurrent use and are
// no-ops on a nil receiver.
type Tracker struct {
	run    atomic.Pointer[runState]
	stalls atomic.Int64

	// Process watermarks survive Begin: a campaign's manifest reports the
	// peaks observed across the whole process lifetime, sampled at each
	// CaptureWatermarks call (the Sampler's tick and every run finish).
	heapBytes      atomic.Uint64
	peakHeapBytes  atomic.Uint64
	goroutines     atomic.Int64
	peakGoroutines atomic.Int64
	gcPauseNs      atomic.Uint64

	lastSample atomic.Pointer[Sample]
}

// NewTracker returns an empty tracker. Begin announces each crawl.
func NewTracker() *Tracker { return &Tracker{} }

// Begin resets the per-run counters for a new crawl: experiment names the
// run ("dns", ...), total is the node population the crawl works through
// (the ETA denominator; 0 if unknown), and workers is the resolved shard
// count. Prior runs' shard counts are discarded; process watermarks and the
// stall total persist.
func (t *Tracker) Begin(experiment string, total int64, workers int) {
	if t == nil {
		return
	}
	if workers < 1 {
		workers = 1
	}
	if total < 0 {
		total = 0
	}
	t.run.Store(&runState{
		experiment: experiment,
		total:      total,
		workers:    workers,
		shards:     make([]shardCell, workers),
	})
	t.lastSample.Store(nil)
}

// cell returns shard's counter cell, or nil when no run is active.
func (t *Tracker) cell(shard int) *shardCell {
	if t == nil {
		return nil
	}
	rs := t.run.Load()
	if rs == nil || len(rs.shards) == 0 {
		return nil
	}
	if shard < 0 {
		shard = 0
	}
	return &rs.shards[shard%len(rs.shards)]
}

// Probe records one issued probe (a session handed to shard).
func (t *Tracker) Probe(shard int) {
	if c := t.cell(shard); c != nil {
		c.probes.Add(1)
	}
}

// Done records one completed node measurement on shard.
func (t *Tracker) Done(shard int) {
	if c := t.cell(shard); c != nil {
		c.done.Add(1)
	}
}

// Violation records one detected end-to-end violation on shard.
func (t *Tracker) Violation(shard int) {
	if c := t.cell(shard); c != nil {
		c.violations.Add(1)
	}
}

// Fail records one errored session on shard.
func (t *Tracker) Fail(shard int) {
	if c := t.cell(shard); c != nil {
		c.failures.Add(1)
	}
}

// Duplicate records a session that landed on an already-measured node.
func (t *Tracker) Duplicate(shard int) {
	if c := t.cell(shard); c != nil {
		c.duplicates.Add(1)
	}
}

// Discard records a session dropped by experiment policy (node switched
// mid-probe, AS quota already satisfied).
func (t *Tracker) Discard(shard int) {
	if c := t.cell(shard); c != nil {
		c.discarded.Add(1)
	}
}

// Fault records a probe lost to a transport-layer fault on shard — the
// run's error budget, disjoint from Fail's honest failures.
func (t *Tracker) Fault(shard int) {
	if c := t.cell(shard); c != nil {
		c.faults.Add(1)
	}
}

// Stalls reports how many times the watchdog fired over the tracker's
// lifetime.
func (t *Tracker) Stalls() int64 {
	if t == nil {
		return 0
	}
	return t.stalls.Load()
}

// noteStall counts one watchdog firing.
func (t *Tracker) noteStall() {
	if t != nil {
		t.stalls.Add(1)
	}
}

// Watermarks are the process-level runtime peaks the flight recorder
// samples. Peaks are observed at CaptureWatermarks calls, not continuously:
// a spike between two samples can be missed, which is the usual watermark
// trade-off.
type Watermarks struct {
	// HeapBytes is live heap at the last capture; PeakHeapBytes the highest
	// capture so far.
	HeapBytes     uint64 `json:"heap_bytes"`
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	// Goroutines / PeakGoroutines mirror the same pair for goroutine count.
	Goroutines     int64 `json:"goroutines"`
	PeakGoroutines int64 `json:"peak_goroutines"`
	// GCPauseTotalSeconds is the runtime's cumulative stop-the-world pause
	// time.
	GCPauseTotalSeconds float64 `json:"gc_pause_total_seconds"`
}

// CaptureWatermarks reads the runtime (ReadMemStats, NumGoroutine),
// advances the tracker's peaks, and returns the current watermark view.
// A nil tracker returns zero watermarks without touching the runtime.
func (t *Tracker) CaptureWatermarks() Watermarks {
	if t == nil {
		return Watermarks{}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	g := int64(runtime.NumGoroutine())
	t.heapBytes.Store(ms.HeapAlloc)
	storeMax(&t.peakHeapBytes, ms.HeapAlloc)
	t.goroutines.Store(g)
	storeMax(&t.peakGoroutines, g)
	t.gcPauseNs.Store(ms.PauseTotalNs)
	return t.watermarks()
}

// watermarks returns the last captured view without touching the runtime.
func (t *Tracker) watermarks() Watermarks {
	return Watermarks{
		HeapBytes:           t.heapBytes.Load(),
		PeakHeapBytes:       t.peakHeapBytes.Load(),
		Goroutines:          t.goroutines.Load(),
		PeakGoroutines:      t.peakGoroutines.Load(),
		GCPauseTotalSeconds: float64(t.gcPauseNs.Load()) / 1e9,
	}
}

// storeMax raises *p to v unless it already holds at least v.
func storeMax[T int64 | uint64](p interface {
	Load() T
	CompareAndSwap(old, new T) bool
}, v T) {
	for {
		old := p.Load()
		if v <= old || p.CompareAndSwap(old, v) {
			return
		}
	}
}

// Counts is the crawl's outcome tally, declared once for everything that
// reports it: a shard's cell, the Status sums, and every Sample line. Each
// probe issued ends in exactly one of Done, Failures, Discarded, Duplicates
// or Faults, so a reader can reconcile any of those views against Probes;
// Violations is a subset of Done.
type Counts struct {
	Done       int64 `json:"done"`
	Probes     int64 `json:"probes"`
	Violations int64 `json:"violations"`
	Failures   int64 `json:"failures"`
	Discarded  int64 `json:"discarded"`
	Duplicates int64 `json:"duplicates"`
	Faults     int64 `json:"faults"`
}

// add folds another tally into c.
func (c *Counts) add(o Counts) {
	c.Done += o.Done
	c.Probes += o.Probes
	c.Violations += o.Violations
	c.Failures += o.Failures
	c.Discarded += o.Discarded
	c.Duplicates += o.Duplicates
	c.Faults += o.Faults
}

// ShardStatus is one worker shard's progress counters.
type ShardStatus = Counts

// Status is a Tracker's point-in-time view: per-shard counters, their sums,
// the process watermarks, and (when a Sampler runs) the latest rate sample.
type Status struct {
	Experiment string `json:"experiment"`
	TotalNodes int64  `json:"total_nodes"`
	Workers    int    `json:"workers"`

	Counts

	Shards     []ShardStatus `json:"shards,omitempty"`
	Watermarks Watermarks    `json:"watermarks"`
	Stalls     int64         `json:"stalls"`

	// Sample is the Sampler's most recent output (rates, ETA); nil when no
	// sampler has ticked yet.
	Sample *Sample `json:"sample,omitempty"`
}

// Snapshot freezes the tracker. The aggregate fields are the sums of the
// returned Shards, so they always satisfy total == sum-of-shards; because
// every cell is monotonic and cells are read in order, the aggregates are
// also monotonic across successive snapshots. A nil tracker yields the zero
// Status.
func (t *Tracker) Snapshot() Status {
	if t == nil {
		return Status{}
	}
	rs := t.run.Load()
	st := Status{
		Watermarks: t.watermarks(),
		Stalls:     t.stalls.Load(),
		Sample:     t.lastSample.Load(),
	}
	if rs == nil {
		return st
	}
	st.Experiment = rs.experiment
	st.TotalNodes = rs.total
	st.Workers = rs.workers
	st.Shards = make([]ShardStatus, len(rs.shards))
	for i := range rs.shards {
		st.Shards[i] = rs.shards[i].load()
		st.Counts.add(st.Shards[i])
	}
	return st
}

// setSample publishes the sampler's latest output for Snapshot readers.
func (t *Tracker) setSample(s *Sample) {
	if t != nil {
		t.lastSample.Store(s)
	}
}
