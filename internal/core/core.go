// Package core implements the paper's contribution: the measurement
// techniques that turn a P2P HTTP/S proxy service into a large-scale
// detector for end-to-end connectivity violations.
//
// Four experiment drivers mirror §4–§7:
//
//   - DNSExperiment: the d1/d2 NXDOMAIN-hijack probe, including the
//     super-proxy resolver gate and the shared-anycast filter.
//   - HTTPExperiment: four-object content-modification detection with the
//     3-nodes-per-AS sampling strategy and revisit-on-detection.
//   - TLSExperiment: two-phase certificate collection over CONNECT tunnels
//     against popular, international, and deliberately-invalid sites.
//   - MonitorExperiment: unique per-node domains plus a 24-hour watch for
//     unexpected third-party requests.
//
// All of them (and the §3.4 SMTP extension) run the same §3.2 crawl:
// runCrawl owns the loop, and each driver hands it a crawlSpec naming its
// probe and the few things it does differently.
//
// The drivers observe the world only through what the paper could see: the
// proxy client's responses and debug headers, the authoritative DNS query
// log, and the measurement web server's request log. Ground truth from the
// population package is never consulted.
//
// Each experiment's observation type is also its release record: the json
// tags on DNSObservation, HTTPObservation, TLSObservation, MonObservation
// and SMTPObservation (and the element types they hold) are the line format
// internal/dataset writes. A field added to one of them is tagged where it
// is declared, or marked `json:"-"` to keep it out of the release.
package core

import (
	"context"
	"math/rand/v2"
	"net/netip"
	"slices"
	"strings"
	"sync"

	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/metrics"
	"github.com/tftproject/tft/internal/progress"
	"github.com/tftproject/tft/internal/proxynet"
	"github.com/tftproject/tft/internal/simnet"
	"github.com/tftproject/tft/internal/trace"
)

// Budget enforces the paper's per-node courtesy cap (§3.4): never more than
// MaxBytes downloaded through any single exit node across all experiments.
type Budget struct {
	// MaxBytes per zID; zero means the paper's 1 MB.
	MaxBytes int64
	// Metrics, when non-nil, receives the charged-byte counter and counts
	// each node once when it first crosses the cap.
	Metrics *metrics.Registry

	mu   sync.Mutex
	used map[string]int64
}

// DefaultBudgetBytes is the paper's 1 MB per exit node.
const DefaultBudgetBytes = 1 << 20

// NewBudget creates a budget tracker.
func NewBudget(maxBytes int64) *Budget {
	if maxBytes <= 0 {
		maxBytes = DefaultBudgetBytes
	}
	return &Budget{MaxBytes: maxBytes, used: make(map[string]int64)}
}

// Charge records n bytes against zid, reporting whether the node remains
// within budget. Callers must stop measuring a node once Charge returns
// false.
func (b *Budget) Charge(zid string, n int) bool { return b.charge(zid, n, b.Metrics) }

// charge is Charge reporting into m: the HTTP crawl passes its own
// registry for a budget that has none.
func (b *Budget) charge(zid string, n int, m *metrics.Registry) bool {
	b.mu.Lock()
	before := b.used[zid]
	b.used[zid] += int64(n)
	after := b.used[zid]
	b.mu.Unlock()
	chargeBytes(m, n)
	if before <= b.MaxBytes && after > b.MaxBytes {
		m.Counter("budget_exhausted_total").Inc()
	}
	return after <= b.MaxBytes
}

// chargeBytes counts n bytes downloaded through an exit node: the §3.4
// accounting every metered driver keeps. Only the HTTP crawl, the one that
// can reach the cap, also holds nodes to it (Budget).
func chargeBytes(m *metrics.Registry, n int) {
	m.Counter("budget_charged_bytes").Add(int64(n))
}

// Used reports the bytes charged to zid.
func (b *Budget) Used(zid string) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used[zid]
}

// CrawlConfig tunes the §3.2 exit-node discovery loop shared by all
// experiments.
type CrawlConfig struct {
	// Workers is the number of concurrent measurement sessions.
	Workers int
	// Window and StopNewRate implement the stop rule: once fewer than
	// StopNewRate of the last Window sessions discovered a new zID, the
	// crawl ends ("the rate of new exit nodes we discover drops
	// significantly").
	Window      int
	StopNewRate float64
	// MaxSessions bounds the crawl regardless (0 = derived from the
	// country weights).
	MaxSessions int
	// Metrics, when non-nil, receives the crawl's live telemetry: session
	// and novelty counters, per-country session counts, the stop-rule
	// window trajectory, and why the crawl stopped. A nil registry
	// disables instrumentation at the cost of a nil check.
	Metrics *metrics.Registry
	// Tracer, when non-nil, wraps every sampled measurement session in a
	// client root span whose context the proxy chain's spans parent under,
	// yielding a complete per-request trace tree. Nil disables tracing.
	Tracer *trace.Tracer
	// TraceSample is how many sessions the tracer traces one of: a session
	// whose number is a multiple of it. Every other session carries
	// trace.Unsampled, and no hop starts a span for it. 0 means
	// DefaultTraceSample; 1 traces every session.
	TraceSample int
	// Progress, when non-nil, is the flight recorder: the crawler reports
	// each issued probe and the drivers report per-shard outcomes into it,
	// so a Sampler can expose live done/total, rates, and ETA while the
	// crawl runs. Nil disables progress reporting.
	Progress *progress.Tracker
}

// DefaultTraceSample is CrawlConfig.TraceSample's default: one session in
// 512, so that an unsampled session, nearly all of them, pays nothing for
// the tracer, and a crawl's sample is a few hundred whole traces.
const DefaultTraceSample = 512

// withDefaults fills unset fields.
func (c CrawlConfig) withDefaults(totalNodes int) CrawlConfig {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Window <= 0 {
		c.Window = 400
	}
	if c.StopNewRate <= 0 {
		c.StopNewRate = 0.05
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 12*totalNodes + 1000
	}
	if c.TraceSample <= 0 {
		c.TraceSample = DefaultTraceSample
	}
	return c
}

// crawler implements weighted country selection, zID dedup, and the stop
// rule. Safe for concurrent use by the worker pool.
type crawler struct {
	cfg       CrawlConfig
	countries []geo.CountryCode
	cum       []int // cumulative weights
	totalW    int

	mu          sync.Mutex
	rng         *rand.Rand
	seen        map[string]bool
	recent      []bool
	recentAt    int
	filled      int
	newInWin    int
	sessions    int
	stopped     bool
	stopCounted bool

	// Cached instrument handles; all nil-safe no-ops when cfg.Metrics is
	// nil, so the hot path never branches on telemetry being enabled.
	mSessions   *metrics.Counter
	mNodes      *metrics.Counter
	mDuplicates *metrics.Counter
	mByCountry  *metrics.LabeledCounter
	mWindowNew  *metrics.Gauge
	mWindowRate *metrics.Histogram
}

// newCrawler builds a crawler over the service-reported country weights.
func newCrawler(cfg CrawlConfig, weights map[geo.CountryCode]int, rng *rand.Rand) *crawler {
	total := 0
	var countries []geo.CountryCode
	for cc := range weights {
		countries = append(countries, cc)
	}
	// Deterministic order for reproducible sampling.
	slices.Sort(countries)
	cum := make([]int, len(countries))
	for i, cc := range countries {
		total += weights[cc]
		cum[i] = total
	}
	cfg = cfg.withDefaults(total)
	m := cfg.Metrics
	return &crawler{
		cfg: cfg, countries: countries, cum: cum, totalW: total,
		rng:    rng,
		seen:   make(map[string]bool),
		recent: make([]bool, cfg.Window),

		mSessions:   m.Counter("crawl_sessions_total"),
		mNodes:      m.Counter("crawl_nodes_total"),
		mDuplicates: m.Counter("crawl_duplicates_total"),
		mByCountry:  m.Labeled("crawl_sessions_by_country"),
		mWindowNew:  m.Gauge("crawl_window_new"),
		mWindowRate: m.Histogram("crawl_window_new_rate", windowRateBounds),
	}
}

// windowRateBounds bucket the stop-rule window's new-node rate; the 0.05
// boundary is the default StopNewRate, so the lowest buckets show how the
// crawl approached its stopping condition.
var windowRateBounds = []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8}

// next picks a country (weight-proportional) and a fresh session ID, and
// says whether the session falls in the trace sample (its number is a
// multiple of TraceSample), or reports that the crawl should stop. A
// cancelled ctx stops the crawl as if the session cap had been reached.
func (c *crawler) next(ctx context.Context) (cc geo.CountryCode, id string, sampled, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ctx.Err() != nil {
		c.recordStop("context_cancelled")
		return "", "", false, false
	}
	if c.stopped || c.totalW == 0 {
		return "", "", false, false
	}
	if c.sessions >= c.cfg.MaxSessions {
		c.recordStop("session_cap")
		return "", "", false, false
	}
	c.sessions++
	// "s%08d" by hand: one allocation instead of Sprintf's boxing, on a
	// path that runs once per session.
	var sb [9]byte
	sb[0] = 's'
	for i, n := 8, c.sessions; i >= 1; i, n = i-1, n/10 {
		sb[i] = byte('0' + n%10)
	}
	id = string(sb[:])
	w := int(c.rng.IntN(c.totalW))
	idx := 0
	for idx < len(c.cum) && c.cum[idx] <= w {
		idx++
	}
	cc = c.countries[idx]
	c.mSessions.Inc()
	c.mByCountry.Inc(string(cc))
	return cc, id, c.sessions%c.cfg.TraceSample == 0, true
}

// recordStop counts why the crawl stopped, once. Callers hold c.mu.
func (c *crawler) recordStop(reason string) {
	if c.stopCounted {
		return
	}
	c.stopCounted = true
	c.cfg.Metrics.Labeled("crawl_stopped_total").Inc(reason)
}

// observe records a measured zID and advances the stop rule. For a node not
// measured before it returns the copy of zid the crawl keeps, cloned here
// and only here: zid is a substring of a response's head (see
// proxynet.ParseDebug), which nothing kept may pin. For a revisit it returns
// "" and false.
func (c *crawler) observe(zid string) (kept string, isNew bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	isNew = !c.seen[zid]
	if isNew {
		kept = strings.Clone(zid)
		c.seen[kept] = true
		c.mNodes.Inc()
	} else {
		c.mDuplicates.Inc()
	}
	// Ring buffer of recent novelty outcomes.
	if c.filled == len(c.recent) {
		if c.recent[c.recentAt] {
			c.newInWin--
		}
	} else {
		c.filled++
	}
	c.recent[c.recentAt] = isNew
	if isNew {
		c.newInWin++
	}
	c.recentAt = (c.recentAt + 1) % len(c.recent)
	c.mWindowNew.Set(int64(c.newInWin))
	if c.filled == len(c.recent) && c.recentAt == 0 {
		// One trajectory sample per full window turn: how fast is the
		// crawl still finding new nodes?
		c.mWindowRate.Observe(float64(c.newInWin) / float64(len(c.recent)))
	}
	if c.filled == len(c.recent) &&
		float64(c.newInWin) < c.cfg.StopNewRate*float64(len(c.recent)) {
		c.stopped = true
		c.recordStop("stop_rule")
	}
	return kept, isNew
}

// Stats summarises a crawl.
type Stats struct {
	// Sessions is how many proxy sessions the crawl spent.
	Sessions int
	// UniqueNodes is how many distinct zIDs were measured.
	UniqueNodes int
	// StoppedByRule reports whether the new-node-rate rule (rather than the
	// session cap) ended the crawl.
	StoppedByRule bool
	// Faulted counts probes lost to transport-layer faults (injected chaos
	// or their real-world analogues). They are excluded from violation
	// denominators — a reset mid-probe says nothing about the node's DNS or
	// content path — and surfaced here as the run's error budget. Filled by
	// runCrawl after the shard merge, not by the crawler.
	Faulted int
}

func (c *crawler) stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Sessions: c.sessions, UniqueNodes: len(c.seen), StoppedByRule: c.stopped}
}

// outcome is how one measurement session ended; every session a crawl
// spends lands in exactly one.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeFailed
	outcomeDuplicate
	outcomeDiscarded
	// outcomeFault: the probe died to a transport-layer fault rather than
	// anything the node's path did — counted into the error budget, never
	// the failure or violation tallies.
	outcomeFault
	numOutcomes
)

// outcomeNames are the span-attribute spellings.
var outcomeNames = [numOutcomes]string{"ok", "failed", "duplicate", "discarded", "faulted"}

// String names the outcome for span attributes.
func (o outcome) String() string { return outcomeNames[o] }

// traceProbe opens the client-side root span for one sampled measurement
// session — the one per-probe record. The returned context parents
// everything the proxy chain does for the probe; the probe's done stamps
// the measured zID, the outcome and, when the probe found one, the
// violation, then ends the span. A clean probe's four attributes fit the
// span's inline storage; only a violating one spills. A session outside the
// sample opens no root (runCrawl hands it unsampledContext) and its done
// ends the zero Span. With a nil CrawlConfig.Tracer both are cheap no-ops.
func (c *crawler) traceProbe(ctx context.Context, name string, cc geo.CountryCode, sess string) (context.Context, probe) {
	if c.cfg.Tracer == nil {
		return ctx, probe{}
	}
	span := c.cfg.Tracer.StartRoot(name, trace.KindClient,
		trace.Str("session", sess), trace.Str("country", string(cc)))
	return trace.NewContext(ctx, span.Context()), probe{span: span}
}

// unsampledContext is the context of every session outside the trace
// sample: ctx carrying trace.Unsampled, so that no hop starts a span for
// it, or ctx itself with a nil CrawlConfig.Tracer. It is the same for every
// session, so runCrawl builds it once.
func (c *crawler) unsampledContext(ctx context.Context) context.Context {
	if c.cfg.Tracer == nil {
		return ctx
	}
	return trace.NewContext(ctx, trace.Unsampled)
}

// probe is one session's root span, the zero Span outside the sample.
type probe struct{ span trace.Span }

// done records how the session ended on its root span and ends it.
func (p probe) done(zid string, oc outcome, violation string) {
	span := p.span
	attrs := [3]trace.Attr{trace.Str("outcome", oc.String())}
	n := 1
	if zid != "" {
		attrs[0], attrs[1] = trace.Str("zid", zid), attrs[0]
		n++
	}
	if violation != "" {
		attrs[n] = trace.Str("violation", violation)
		n++
	}
	span.SetAttrs(attrs[:n]...)
	switch oc {
	case outcomeFailed:
		span.SetError("probe_failed")
	case outcomeFault:
		span.SetError("probe_faulted")
	}
	span.End()
}

// runWorkers drives measure() from cfg.Workers goroutines until the crawl
// stops or ctx is cancelled. measure is called with the worker's shard
// index, a country, a session ID and whether the session is in the trace
// sample, and must do its own recording; a
// given shard's calls are sequential, so per-shard state needs no
// synchronization. Cancellation is checked before every session hand-out,
// so each worker finishes at most the session it is in.
func (c *crawler) runWorkers(ctx context.Context, measure func(shard int, cc geo.CountryCode, session string, sampled bool)) {
	var wg sync.WaitGroup
	for w := 0; w < c.cfg.Workers; w++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for {
				cc, sess, sampled, ok := c.next(ctx)
				if !ok {
					return
				}
				c.cfg.Progress.Probe(shard)
				measure(shard, cc, sess, sampled)
			}
		}(w)
	}
	wg.Wait()
}

// classifyFailure splits a failed probe between honest failure and
// transport fault: the client's own error is checked first, then the
// service-reported debug error (the super proxy stamps ErrPeerTransport
// when the exit node's fetch died to a reset/stall/truncation). Faulted
// probes are tallied into the run's error budget instead of the failure
// count, so chaos does not masquerade as middlebox behaviour — and so
// genuine failures are not hidden by it either.
func classifyFailure(err error, dbg *proxynet.Debug) outcome {
	if proxynet.IsTransportFault(err) {
		return outcomeFault
	}
	if dbg != nil && dbg.Err == proxynet.ErrPeerTransport {
		return outcomeFault
	}
	return outcomeFailed
}

// rate is n/d as a fraction, zero over an empty denominator.
func rate(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// locate derives a node's AS and country from its address via the public
// IP→AS mapping; unmapped addresses yield zero values.
func locate(reg *geo.Registry, ip netip.Addr) (geo.ASN, geo.CountryCode) {
	asn, ok := reg.LookupAS(ip)
	if !ok {
		return 0, ""
	}
	country, _ := reg.Country(asn)
	return asn, country
}

// Dataset is an experiment's output: the canonical zID-ordered observations
// plus the crawl's outcome tallies. Every session the crawl spent is one
// observation, failure, duplicate, discard or fault.
type Dataset[T any] struct {
	Observations []T
	Crawl        Stats
	// Failures counts sessions that errored before yielding a node.
	Failures int
	// Duplicates counts sessions that landed on an already-measured node.
	Duplicates int
	// Discarded counts sessions dropped by experiment policy: the exit node
	// changed mid-probe (DNS, TLS), or the node's AS had already met its
	// sampling quota (HTTP). Monitoring and SMTP never discard.
	Discarded int
	// Faults counts probes lost to transport-layer faults; they are
	// excluded from violation denominators (see Stats.Faulted).
	Faults int
}

// CrawlStats returns the crawl summary — the accessor generic consumers
// reach Crawl through, since the experiments' dataset types differ.
func (d *Dataset[T]) CrawlStats() Stats { return d.Crawl }

// crawlSpec is what one experiment tells the shared crawl loop about
// itself. It is plain data and funcs: everything an experiment does
// differently from its siblings is a field here, so runCrawl never asks
// which experiment it is serving.
type crawlSpec[T comparable] struct {
	// name labels the flight recorder ("monitor"); the root span of every
	// session is "probe."+name. stream is the crawler's rng stream label
	// ("crawl/mon") — kept separate because the two spellings differ and a
	// fixed seed must keep drawing the same sessions.
	name, stream string
	// measure runs one session and reports how it ended. It must call
	// cr.observe on the zID it discovers and return outcomeDuplicate when
	// that reports a revisit; T's zero value stands for "no record".
	measure func(ctx context.Context, cr *crawler, cc geo.CountryCode, sess string) (T, outcome)
	// zid names a record's node: the merge key and the span attribute.
	zid func(T) string
	// violation, when non-nil, flags records that show the end-to-end
	// violation the experiment looks for; each bumps violationCounter and
	// stamps violationDetail on the session's root span. A spec that sets
	// the hook sets both names.
	violation                         func(T) bool
	violationCounter, violationDetail string
	// onOK, when non-nil, sees every successful record on its worker's
	// goroutine before it is stored: the hook for counters and crawl state
	// only this experiment keeps.
	onOK func(shard int, obs T)
	// discardedCounter names the counter outcomeDiscarded bumps — what a
	// discard means is experiment policy.
	discardedCounter string
}

// shardSink accumulates one worker shard's records and outcome tallies.
// Each shard is written by exactly one worker goroutine, so the hot path
// appends without locks; mergeShards reduces the partials after the crawl.
type shardSink[T any] struct {
	obs     []T
	tallies [numOutcomes]int
}

// mergeShards reduces per-shard partials into a single dataset: tallies
// sum, and observations are concatenated then canonically ordered by zID.
// Because the crawler dedups zIDs globally, the sort is a total order, so
// the merged dataset is independent of worker count and scheduling.
func mergeShards[T any](shards []shardSink[T], zid func(T) string) *Dataset[T] {
	n := 0
	for i := range shards {
		n += len(shards[i].obs)
	}
	var t [numOutcomes]int
	obs := make([]T, 0, n)
	for i := range shards {
		obs = append(obs, shards[i].obs...)
		for oc, n := range shards[i].tallies {
			t[oc] += n
		}
	}
	slices.SortFunc(obs, func(a, b T) int { return strings.Compare(zid(a), zid(b)) })
	return &Dataset[T]{Observations: obs, Failures: t[outcomeFailed],
		Duplicates: t[outcomeDuplicate], Discarded: t[outcomeDiscarded], Faults: t[outcomeFault]}
}

// runCrawl is the one §3.2 crawl every experiment hangs its probe off:
// weighted country pick → session → x.measure → dedup by zID → stop when the
// new-node rate drops. It owns the crawler and its rng stream, the flight
// recorder hand-off, the per-shard sinks, the root span of each session, and
// the single place where an outcome becomes a tally, a progress tick and a
// counter; the merged dataset comes back with its Stats filled in.
func runCrawl[T comparable](ctx context.Context, cfg CrawlConfig, weights map[geo.CountryCode]int, seed uint64, x crawlSpec[T]) (*Dataset[T], error) {
	m, prog := cfg.Metrics, cfg.Progress
	cr := newCrawler(cfg, weights, simnet.SubRand(seed, x.stream))
	// Announce the crawl to the flight recorder: the node population (the
	// ETA denominator — the service-reported country weights the crawl works
	// through) and the resolved shard count.
	prog.Begin(x.name, int64(cr.totalW), cr.cfg.Workers)
	spanName := "probe." + x.name
	shards := make([]shardSink[T], cr.cfg.Workers)
	var none T
	unsampled := cr.unsampledContext(ctx)

	cr.runWorkers(ctx, func(shard int, cc geo.CountryCode, sess string, sampled bool) {
		pctx, root := unsampled, probe{}
		if sampled {
			pctx, root = cr.traceProbe(ctx, spanName, cc, sess)
		}
		obs, oc := x.measure(pctx, cr, cc, sess)
		var zid, violation string
		if obs != none {
			zid = x.zid(obs)
		}
		if oc == outcomeOK && x.violation != nil && x.violation(obs) {
			violation = x.violationDetail
		}
		root.done(zid, oc, violation)
		sink := &shards[shard]
		sink.tallies[oc]++
		switch oc {
		case outcomeOK:
			prog.Done(shard)
			if x.onOK != nil {
				x.onOK(shard, obs)
			}
			if violation != "" {
				prog.Violation(shard)
				m.Counter(x.violationCounter).Inc()
			}
			sink.obs = append(sink.obs, obs)
		case outcomeFailed:
			prog.Fail(shard)
			m.Counter("crawl_failures_total").Inc()
		case outcomeDuplicate:
			prog.Duplicate(shard)
		case outcomeDiscarded:
			prog.Discard(shard)
			m.Counter(x.discardedCounter).Inc()
		case outcomeFault:
			prog.Fault(shard)
			m.Counter("fault_probes_total").Inc()
		}
	})
	ds := mergeShards(shards, x.zid)
	ds.Crawl = cr.stats()
	ds.Crawl.Faulted = ds.Faults
	return ds, ctx.Err()
}
