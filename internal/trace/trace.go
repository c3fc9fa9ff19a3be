// Package trace is the request-level half of the repository's
// observability substrate (the aggregate half is internal/metrics): a
// lightweight span tracer that records what happened to one request as it
// crossed the proxy chain — client → super proxy attempt(s) → exit node →
// resolver/origin.
//
// The design mirrors the paper's own debugging surface: Luminati's
// X-Hola-Timeline-Debug header (§2.3) exposes which exit node served a
// request and what was retried, and every attribution technique in §4–§6
// leans on that per-request visibility. A Span is the structured form of
// one hop of that timeline; a trace tree is the whole timeline.
//
// Like metrics.Registry, everything is nil-safe: a nil *Tracer hands out
// zero Spans whose methods are no-ops, so instrumented code paths never
// branch on "is tracing enabled". Timestamps come from a caller-supplied
// clock function (the simnet virtual clock in simulated worlds, the wall
// clock in the cmd/ daemons), so full-scale simulated crawls produce spans
// whose durations reflect virtual time.
package trace

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tftproject/tft/internal/metrics"
)

// TraceID identifies one request's whole span tree.
type TraceID uint64

// SpanID identifies one span within a trace.
type SpanID uint64

// String renders the ID as fixed-width hex (the header/export form).
func (t TraceID) String() string { return hex16(uint64(t)) }

// String renders the ID as fixed-width hex.
func (s SpanID) String() string { return hex16(uint64(s)) }

const hexDigits = "0123456789abcdef"

// hex16 renders v as 16 lowercase hex digits in a single allocation —
// String() runs once per log record and twice per propagated header, where
// fmt.Sprintf("%016x") costs three.
func hex16(v uint64) string {
	var b [16]byte
	return string(appendHex16(b[:0], v))
}

// appendHex16 appends v as 16 lowercase hex digits.
func appendHex16(b []byte, v uint64) []byte {
	var h [16]byte
	for i := 15; i >= 0; i-- {
		h[i] = hexDigits[v&0xf]
		v >>= 4
	}
	return append(b, h[:]...)
}

// MarshalJSON renders the ID as a quoted hex string.
func (t TraceID) MarshalJSON() ([]byte, error) { return []byte(`"` + t.String() + `"`), nil }

// MarshalJSON renders the ID as a quoted hex string.
func (s SpanID) MarshalJSON() ([]byte, error) { return []byte(`"` + s.String() + `"`), nil }

// UnmarshalJSON parses the quoted hex form.
func (t *TraceID) UnmarshalJSON(b []byte) error {
	v, err := unhexJSON(b)
	*t = TraceID(v)
	return err
}

// UnmarshalJSON parses the quoted hex form.
func (s *SpanID) UnmarshalJSON(b []byte) error {
	v, err := unhexJSON(b)
	*s = SpanID(v)
	return err
}

func unhexJSON(b []byte) (uint64, error) {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return 0, fmt.Errorf("trace: malformed id %q", b)
	}
	return strconv.ParseUint(string(b[1:len(b)-1]), 16, 64)
}

// SpanContext is the propagated part of a span: enough for a downstream
// hop (another goroutine, another process) to parent its own spans.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context names a real span.
func (sc SpanContext) Valid() bool { return sc.Trace != 0 && sc.Span != 0 }

// Kind classifies a span by the hop that produced it — the /traces
// endpoint's primary filter.
type Kind string

// The proxy chain's span vocabulary.
const (
	// KindClient: a measurement client's root probe span.
	KindClient Kind = "client"
	// KindProxy: the super proxy's server-side request span.
	KindProxy Kind = "superproxy"
	// KindAttempt: one exit-node try within a proxied request (the
	// structured form of one entry in the X-Hola-Timeline-Debug retry
	// chain).
	KindAttempt Kind = "attempt"
	// KindDNS: a DNS resolution, at the super proxy or on the exit node.
	KindDNS Kind = "dns"
	// KindFetch: the exit node's origin fetch.
	KindFetch Kind = "fetch"
	// KindTunnel: the exit node's CONNECT tunnel data phase.
	KindTunnel Kind = "tunnel"
)

// vocabulary is the span vocabulary in chain order. A retained span records
// its kind as its place here.
var vocabulary = [...]Kind{KindClient, KindProxy, KindAttempt, KindDNS, KindFetch, KindTunnel}

// Kinds lists the span vocabulary in chain order — the /traces endpoint's
// filter validation and usage text iterate this instead of hard-coding the
// names.
func Kinds() []Kind { return slices.Clone(vocabulary[:]) }

// ValidKind reports whether k is part of the span vocabulary.
func ValidKind(k Kind) bool { return slices.Contains(vocabulary[:], k) }

// attrKind discriminates the typed value fields of an Attr.
type attrKind uint8

const (
	attrString attrKind = iota
	attrInt
)

// Attr is one typed span attribute. The value lives in typed fields rather
// than an interface so that building an attribute on the hot path never
// allocates; MarshalJSON preserves the {"key":K,"value":V} wire form.
type Attr struct {
	Key  string
	kind attrKind
	str  string
	num  int64
}

// Str builds a string attribute.
func Str(key, value string) Attr { return Attr{Key: key, kind: attrString, str: value} }

// Int builds an integer attribute.
func Int(key string, value int64) Attr { return Attr{Key: key, kind: attrInt, num: value} }

// Value returns the attribute's value boxed as any — for exporters and
// generic inspection; hot paths stay on the typed fields.
func (a Attr) Value() any {
	switch a.kind {
	case attrInt:
		return a.num
	default:
		return a.str
	}
}

// MarshalJSON renders the attribute as {"key":K,"value":V}, the same shape
// the interface-valued struct produced.
func (a Attr) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, len(a.Key)+len(a.str)+24)
	b = append(b, `{"key":`...)
	b = appendJSONString(b, a.Key)
	b = append(b, `,"value":`...)
	switch a.kind {
	case attrInt:
		b = strconv.AppendInt(b, a.num, 10)
	default:
		b = appendJSONString(b, a.str)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON parses the {"key":K,"value":V} wire form back into the
// typed fields, inferring the kind from the JSON value shape.
func (a *Attr) UnmarshalJSON(b []byte) error {
	var raw struct {
		Key   string          `json:"key"`
		Value json.RawMessage `json:"value"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	a.Key = raw.Key
	if len(raw.Value) > 0 && raw.Value[0] == '"' {
		a.kind = attrString
		return json.Unmarshal(raw.Value, &a.str)
	}
	a.kind = attrInt
	return json.Unmarshal(raw.Value, &a.num)
}

// appendJSONString appends s as a JSON string. The fast path covers plain
// printable ASCII; anything needing escapes defers to encoding/json so the
// escaping rules match the rest of the document.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, _ := json.Marshal(s)
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// SpanData is a span's frozen state: what the collector retains and the
// exporters serialize.
type SpanData struct {
	TraceID TraceID   `json:"trace_id"`
	SpanID  SpanID    `json:"span_id"`
	Parent  SpanID    `json:"parent_id,omitempty"`
	Name    string    `json:"name"`
	Kind    Kind      `json:"kind"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	Err     string    `json:"error,omitempty"`
	Attrs   []Attr    `json:"attrs,omitempty"`
}

// Attr returns the named attribute's value ("" / nil when absent).
func (d *SpanData) Attr(key string) any {
	for _, a := range d.Attrs {
		if a.Key == key {
			return a.Value()
		}
	}
	return nil
}

// Str returns the named attribute as a string ("" when absent or not a
// string). It reads the typed field directly, so lookups never box.
func (d *SpanData) Str(key string) string {
	for _, a := range d.Attrs {
		if a.Key == key && a.kind == attrString {
			return a.str
		}
	}
	return ""
}

// Duration is the span's elapsed time on its tracer's clock.
func (d *SpanData) Duration() time.Duration { return d.End.Sub(d.Start) }

// Span is a handle to one in-flight operation: the storage the tracer issued
// for it and the generation it was issued in. Created by a Tracer, finished
// with End or Discard, at which point the span is committed (encoded into
// the tracer's ring), waits for its root (see Tracer) or is dropped, and its
// storage goes back to the tracer once nothing waits in it. A handle is
// stale from its span's End on: SetAttrs, SetError, Keep, End and Discard
// change nothing and Context is the zero context, whoever the storage has
// been issued to since. The zero Span (what a nil *Tracer hands out) is a
// valid no-op, and all methods are safe for concurrent use.
type Span struct {
	s   *span
	gen uint64
}

// span is an open span's storage. mu guards gen, and data while a handle
// of the current generation is out.
type span struct {
	mu     sync.Mutex
	gen    uint64  // counts up at each End: the handles issued before it are stale
	tracer *Tracer // the tracer that allocated it, whose free list it returns to
	root   bool    // the span is the root holding its trace's stage open

	data SpanData
	// inline is where data.Attrs starts out: room for what the proxy chain's
	// spans carry, so that a span's attributes cost no allocation.
	inline [inlineAttrs]Attr

	next *span // free-list or stage link, guarded by the stripe's or the stage's lock
}

// inlineAttrs covers the busiest span in the chain, node.fetch: zid, host
// and path at start, status at the end.
const inlineAttrs = 4

// Context returns the span's propagation context (zero for the zero span, so
// child spans of an untraced request become roots of their own traces, and
// for a span that has ended).
func (h Span) Context() SpanContext {
	if h.s == nil {
		return SpanContext{}
	}
	var sc SpanContext
	h.s.mu.Lock()
	if h.s.gen == h.gen {
		sc = SpanContext{Trace: h.s.data.TraceID, Span: h.s.data.SpanID}
	}
	h.s.mu.Unlock()
	return sc
}

// SetAttrs appends attributes to the span.
func (h Span) SetAttrs(attrs ...Attr) {
	if h.s == nil {
		return
	}
	h.s.mu.Lock()
	if h.s.gen == h.gen {
		h.s.data.Attrs = append(h.s.data.Attrs, attrs...)
	}
	h.s.mu.Unlock()
}

// SetError marks the span failed. The last non-empty message wins.
func (h Span) SetError(msg string) {
	if h.s == nil || msg == "" {
		return
	}
	h.s.mu.Lock()
	if h.s.gen == h.gen {
		h.s.data.Err = msg
	}
	h.s.mu.Unlock()
}

// Keep marks the span's trace to be committed whatever its root ends with:
// a Discard of the root commits it as End does. It changes nothing for a
// span whose trace holds no stage here, which commits anyway.
func (h Span) Keep() {
	s := h.s
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.gen != h.gen {
		s.mu.Unlock()
		return
	}
	id := s.data.TraceID
	s.mu.Unlock()
	st := s.tracer.stage(id)
	st.mu.Lock()
	if st.trace == id {
		st.keep = true
	}
	st.mu.Unlock()
}

// End closes the span, stamping the end time and handing it to the
// collector: a root commits its trace, any other span commits or waits for
// its root (see Tracer). Idempotent: only the first End or Discard counts.
func (h Span) End() { h.end(true) }

// Discard closes the span as End does, except that a root holding its
// trace's stage drops the trace, itself and every span that waited for it,
// unencoded, unless a span of the trace called Keep; the trace's spans that
// end later are dropped too. On any other span it is End.
func (h Span) Discard() { h.end(false) }

func (h Span) end(keep bool) {
	s := h.s
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.gen != h.gen {
		s.mu.Unlock()
		return
	}
	s.gen++
	s.data.End = s.tracer.now()
	s.mu.Unlock()
	// No handle names the storage now, and none will until it is back on
	// the free list: what follows reads it without the lock.
	s.tracer.finish(s, keep)
}

// defaultCapacity bounds a tracer's span memory, small enough to cap a
// long-lived daemon's footprint: at 136 bytes a span, 2.2 MB. It is not a
// crawl's worth of every span: a Scale 0.05 DNS crawl (seed 20160413) ends
// 0.76 M spans over 103 K sessions, which is why a crawl commits only the
// traces its verdicts need (core.CrawlConfig.TraceSample). Once it wraps,
// the ring holds the last spans committed, in commit order: a trace's spans
// commit together when its root ends, not each as it ends. Total counts
// every span committed.
const defaultCapacity = 16384

// lastID hands out process-unique span and trace IDs, a block at a time. A
// single counter shared by every tracer keeps IDs unique even when several
// worlds (the all-experiments campaign) trace concurrently.
var lastID atomic.Uint64

// IDs are drawn from per-stripe blocks of idBlock, the stripe picked by the
// calling goroutine (metrics.ShardIndex), so that concurrent workers share
// one add per block rather than one per span. Values are unique and
// otherwise no contract: blocks interleave between stripes, and one is
// dropped part-used when two goroutines on a stripe race to replace it.
const (
	numStripes = 16
	idBlock    = 64
)

// idStripe holds the last ID its stripe handed out (a multiple of idBlock:
// the block is used up, or was never taken), padded to its own cache line.
type idStripe struct {
	last atomic.Uint64
	_    [56]byte
}

var idStripes [numStripes]idStripe

//tftlint:hotpath
func newID() uint64 {
	var probe byte
	s := &idStripes[metrics.ShardIndex(&probe)%numStripes]
	for {
		last := s.last.Load()
		id := last + 1
		if last%idBlock == 0 {
			id = lastID.Add(idBlock) - idBlock + 1
		}
		if s.last.CompareAndSwap(last, id) {
			return id
		}
	}
}

// Tracer creates spans and retains committed ones in a fixed-capacity ring
// (oldest spans are overwritten once the ring wraps; Total reports how
// many were ever committed). A nil *Tracer is a valid no-op sink.
//
// A trace is committed or dropped as a whole, by its root. A root this
// tracer starts claims a stage, the one its trace ID's low bits name, and
// until the root ends, its trace's spans wait there as they end instead of
// writing the ring. The root's End commits the waiting spans and then
// itself; its Discard drops them all unencoded, unless a span of the trace
// called Keep. The stage remembers that decision until another root claims
// it, and a span of the trace that ends after its root follows it. A span
// commits at its own End when its trace holds no stage: its root is
// another tracer's (a daemon's request arrives carrying a client's
// context), or the stage has been claimed by a newer root since. A trace
// that outgrows its stage (stageDepth spans waiting) commits its further
// spans as they end and is kept whole, whatever its root ends with.
type Tracer struct {
	nowFn func() time.Time
	// base is the tracer's first clock reading, without its monotonic
	// reading: a retained span's times are offsets from it, and come back
	// in its Location.
	base time.Time

	// An ended span claims the next ring slot with one add on total and is
	// encoded into it under the slot's lock: completion order is the order
	// of the adds. The slots hold no pointer, so the garbage collector never
	// scans them.
	ring  []slot
	total atomic.Int64
	// spills holds the records longer than a slot, by slot index; spillMu
	// is taken under the slot's lock.
	spillMu sync.Mutex
	spills  map[int64][]byte

	// Ended spans' storage waits here to be issued again, so that a tracer
	// allocates storage only for as many spans as are ever open or waiting
	// at once: a start takes one out, and a root's End puts its trace's back
	// in one batch. Striped by caller, as idStripes is.
	free [numStripes]freeStripe

	// stages are the roots' waiting rooms, indexed by the low stageBits of
	// a trace ID.
	stages []stage
}

// stage is where a root's trace waits for it: a root claims the stage its
// trace ID names when the root starts, and holds it open until it ends.
// Padded to 128 bytes: two workers' consecutive roots claim neighbouring
// stages.
type stage struct {
	mu    sync.Mutex
	trace TraceID // the trace of the root that claimed it last; 0 before the first
	seq   uint64  // the trace's span IDs handed out: the root's is 1
	// head and tail link the trace's ended spans through span.next, in
	// completion order, waiting for the root; waiting counts them.
	head, tail *span
	// spare links cleared storage the root took off the free list with its
	// own, for the trace's next spans: a child's start takes it under the
	// lock it takes for the child's ID anyway, and what is left goes back
	// with the trace's storage when the root ends.
	spare   *span
	waiting int32
	open    bool  // the root has not ended
	keep    bool  // commit the trace: a span of it called Keep, or its root ended with End
	dropped int64 // spans this stage has dropped, ever
	_       [64]byte
}

const (
	stageBits = 8
	numStages = 1 << stageBits
	// stageDepth bounds what one trace parks: its spans past that many
	// commit as they end, and the trace is then kept whole, so that a root
	// left open (a daemon's request that never finishes) pins a bounded
	// amount of storage.
	stageDepth = 64
	// claimTries is how many trace IDs a root draws looking for a stage no
	// open root holds before it settles for none: then its trace commits
	// span by span.
	claimTries = 4
	// rootTake is how much storage a root takes off the free list, its own
	// and its stage's spares: a probe's trace is six to eleven spans.
	rootTake = 8
	// A staged trace's span IDs are (trace, seq): the seq in the top
	// 64-seqShift bits and the trace ID below, so that they never meet an
	// ID newID hands out. A trace ID too wide for that, or a trace past
	// maxSeq spans, draws its span IDs from newID.
	seqShift = 48
	maxSeq   = 1<<(64-seqShift) - 1
)

// stage returns the stage trace ID id names.
func (t *Tracer) stage(id TraceID) *stage { return &t.stages[uint64(id)%numStages] }

// stagedID is the span ID seq of trace id, and whether there is one.
func stagedID(id TraceID, seq uint64) (SpanID, bool) {
	if uint64(id)>>seqShift != 0 || seq > maxSeq {
		return 0, false
	}
	return SpanID(seq<<seqShift | uint64(id)), true
}

// seqOf is stagedID's inverse: the seq of span ID s in trace id, if s is
// one of the trace's staged IDs.
func seqOf(s SpanID, id TraceID) (uint64, bool) {
	seq := uint64(s) >> seqShift
	return seq, seq != 0 && uint64(s)&(1<<seqShift-1) == uint64(id)
}

// slot is one retained span, as a record (record.go).
type slot struct {
	mu  sync.Mutex
	seq int64 // the total.Add that claimed it, 1 + the span's place in completion order; 0 before the first
	n   uint8 // the record's length in rec; 0 when it is in the tracer's spills
	rec [slotBytes]byte
}

// slotBytes makes a slot 136 bytes. That holds every span of a clean
// probe in each of the five crawls with IDs of up to four varint bytes, so
// what spills is a violating probe's root or a span with a long error.
const slotBytes = 119

// freeStripe is one stripe of a tracer's free list, linked through span.next
// and padded to its own cache line.
type freeStripe struct {
	mu   sync.Mutex
	head atomic.Pointer[span] // written under mu; read without it to pass over an empty stripe
	_    [48]byte
}

// New creates a tracer. now supplies timestamps (nil means the wall
// clock); capacity bounds the collector (<= 0 means the default 16384).
func New(now func() time.Time, capacity int) *Tracer {
	if now == nil {
		//tftlint:ignore simclock -- documented fallback timebase when no clock is injected; simulated runs always inject the virtual clock
		now = time.Now
	}
	if capacity <= 0 {
		capacity = defaultCapacity
	}
	return &Tracer{nowFn: now, base: now().Round(0), ring: make([]slot, capacity), spills: map[int64][]byte{},
		stages: make([]stage, numStages)}
}

func (t *Tracer) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.nowFn()
}

// StartRoot opens a span at the root of a fresh trace.
func (t *Tracer) StartRoot(name string, kind Kind, attrs ...Attr) Span {
	return t.start(SpanContext{}, name, kind, attrs)
}

// StartChild opens a span under parent. An invalid parent context (an
// untraced request) starts a fresh trace instead, so per-hop spans survive
// callers that never propagated context.
func (t *Tracer) StartChild(parent SpanContext, name string, kind Kind, attrs ...Attr) Span {
	return t.start(parent, name, kind, attrs)
}

//tftlint:hotpath
func (t *Tracer) start(parent SpanContext, name string, kind Kind, attrs []Attr) Span {
	if t == nil {
		return Span{}
	}
	var tid TraceID
	var sid, pid SpanID
	var s *span
	root := false
	if parent.Valid() {
		tid, pid = parent.Trace, parent.Span
		sid, s = t.childID(parent.Trace)
	} else {
		var ok bool
		var spare *span
		if s = t.recycled(rootTake); s != nil {
			spare, s.next = s.next, nil
		}
		tid, root = t.claim(spare)
		if !root && spare != nil {
			t.push(spare)
		}
		if sid, ok = stagedID(tid, 1); !root || !ok {
			sid = SpanID(newID())
		}
	}
	if s == nil {
		s = t.recycled(1)
	}
	if s == nil {
		s = &span{tracer: t}
	}
	// Without the lock: storage off the free list has no handle of its
	// generation out, and a stale handle reads nothing but gen. It comes
	// cleared (release), so only what a new span sets is written.
	s.root = root
	d := &s.data
	d.TraceID, d.SpanID, d.Parent, d.Name, d.Kind, d.Start = tid, sid, pid, name, kind, t.now()
	// A copy, so that the caller's variadic slice stays on its stack.
	d.Attrs = append(s.inline[:0], attrs...)
	return Span{s: s, gen: s.gen}
}

// claim draws a new root's trace ID and claims the stage it names, drawing
// again while an open root holds that one, and leaves spare there: true
// when it got a stage.
//
//tftlint:hotpath
func (t *Tracer) claim(spare *span) (TraceID, bool) {
	for try := 1; ; try++ {
		id := TraceID(newID())
		st := t.stage(id)
		st.mu.Lock()
		if !st.open {
			st.trace, st.seq, st.open, st.keep, st.spare = id, 1, true, false, spare
			st.mu.Unlock()
			return id, true
		}
		st.mu.Unlock()
		if try == claimTries {
			return id, false
		}
	}
}

// childID is the ID of a new span of trace id — the trace's next seq while
// its stage knows it, else one from newID — and a spare off its stage, if
// the stage has one for it.
//
//tftlint:hotpath
func (t *Tracer) childID(id TraceID) (SpanID, *span) {
	var sid SpanID
	var s *span
	ok := false
	st := t.stage(id)
	st.mu.Lock()
	if st.trace == id {
		if s = st.spare; s != nil {
			st.spare, s.next = s.next, nil
		}
		if sid, ok = stagedID(id, st.seq+1); ok {
			st.seq++
		}
	}
	st.mu.Unlock()
	if !ok {
		sid = SpanID(newID())
	}
	return sid, s
}

// recycled takes up to n spans' storage off the free list, linked through
// next: from the caller's own stripe, or the next one that has any — a
// goroutine whose starts and Ends hash to different stripes would otherwise
// fill one and starve the other. nil when every stripe is empty.
//
//tftlint:hotpath
func (t *Tracer) recycled(n int) *span {
	var probe byte
	own := metrics.ShardIndex(&probe)
	for i := 0; i < numStripes; i++ {
		st := &t.free[(own+i)%numStripes]
		if st.head.Load() == nil {
			continue
		}
		st.mu.Lock()
		s := st.head.Load()
		if s != nil {
			last := s
			for ; n > 1 && last.next != nil; n-- {
				last = last.next
			}
			st.head.Store(last.next)
			last.next = nil
		}
		st.mu.Unlock()
		if s != nil {
			return s
		}
	}
	return nil
}

// finish files an ended span by its trace's stage: a root takes its
// waiting spans and commits or drops them with itself, a span of an open
// root's trace waits, one of an ended root's follows its decision, and any
// other commits.
//
//tftlint:hotpath
func (t *Tracer) finish(s *span, keep bool) {
	s.next = nil
	st := t.stage(s.data.TraceID)
	st.mu.Lock()
	switch {
	case st.trace != s.data.TraceID:
		st.mu.Unlock()
		t.commit(s)
		t.release(s)
	case s.root:
		head, tail, spare, n := st.head, st.tail, st.spare, int64(st.waiting)+1
		st.head, st.tail, st.spare, st.waiting, st.open = nil, nil, nil, 0, false
		st.keep = st.keep || keep
		keep = st.keep
		if !keep {
			st.dropped += n
		}
		st.mu.Unlock()
		if tail == nil {
			head = s
		} else {
			tail.next = s
		}
		if keep {
			t.commit(head)
		}
		clearSpans(head)
		s.next = spare // cleared already
		t.push(head)
	case st.open && st.waiting < stageDepth:
		if st.tail == nil {
			st.head = s
		} else {
			st.tail.next = s
		}
		st.tail = s
		st.waiting++
		st.mu.Unlock()
	case st.open || st.keep:
		// An open root's trace past stageDepth commits as it ends, and so
		// is kept whole: a Discard now would leave these without a root.
		st.keep = true
		st.mu.Unlock()
		t.commit(s)
		t.release(s)
	default:
		st.dropped++
		st.mu.Unlock()
		t.release(s)
	}
}

// commit encodes the spans linked from head into the ring slots one add on
// total claims for them, in order.
//
//tftlint:hotpath
func (t *Tracer) commit(head *span) {
	n := int64(0)
	for s := head; s != nil; s = s.next {
		n++
	}
	seq := t.total.Add(n) - n
	for s := head; s != nil; s = s.next {
		seq++
		t.write(seq, &s.data)
	}
}

// write encodes d into the ring slot seq claimed.
//
//tftlint:hotpath
func (t *Tracer) write(seq int64, d *SpanData) {
	i := (seq - 1) % int64(len(t.ring))
	sl := &t.ring[i]
	sl.mu.Lock()
	// A span claiming the slot a lap later may have got here first.
	if seq > sl.seq {
		spilled := sl.seq > 0 && sl.n == 0 // the record being overwritten
		rec := t.appendRecord(sl.rec[:0], d)
		sl.seq, sl.n = seq, uint8(len(rec))
		if len(rec) > len(sl.rec) { // appending moved it off the slot
			sl.n = 0
		}
		if spilled || sl.n == 0 {
			t.spillMu.Lock()
			if sl.n == 0 {
				t.spills[i] = rec
			} else {
				delete(t.spills, i)
			}
			t.spillMu.Unlock()
		}
	}
	sl.mu.Unlock()
}

// release clears the storage of the spans linked from head, so that none
// pins what it held, and puts them on the free list.
//
//tftlint:hotpath
func (t *Tracer) release(head *span) {
	clearSpans(head)
	t.push(head)
}

// clearSpans clears the storage of the spans linked from head, keeping the
// links.
//
//tftlint:hotpath
func clearSpans(head *span) {
	for s := head; s != nil; s = s.next {
		s.data = SpanData{}
		clear(s.inline[:])
	}
}

// push puts the storage linked from head on the free list in one batch,
// head first to be issued again.
//
//tftlint:hotpath
func (t *Tracer) push(head *span) {
	tail := head
	for tail.next != nil {
		tail = tail.next
	}
	var probe byte
	st := &t.free[metrics.ShardIndex(&probe)%numStripes]
	st.mu.Lock()
	tail.next = st.head.Load()
	st.head.Store(head)
	st.mu.Unlock()
}

// Spans returns the retained spans in commit order, decoded: the records
// are the caller's. Commit order is not completion order: a trace's spans
// come back together, those that waited for their root first, in the order
// they ended, then the root.
func (t *Tracer) Spans() []SpanData {
	if t == nil {
		return nil
	}
	total, size := t.total.Load(), int64(len(t.ring))
	at := max(total-size, 0) // the oldest retained span
	out := make([]SpanData, 0, total-at)
	for ; at < total; at++ {
		i := at % size
		sl := &t.ring[i]
		sl.mu.Lock()
		// Else the span that claimed it has not written it yet, or one a
		// lap newer has since.
		if sl.seq == at+1 {
			rec := sl.rec[:sl.n]
			if sl.n == 0 {
				t.spillMu.Lock()
				rec = t.spills[i]
				t.spillMu.Unlock()
			}
			out = append(out, t.decode(string(rec)))
		}
		sl.mu.Unlock()
	}
	return out
}

// Total reports how many spans were ever committed, including overwritten
// ones.
func (t *Tracer) Total() int64 {
	if t == nil {
		return 0
	}
	return t.total.Load()
}

// Retained reports how many spans Spans would return: the ring's capacity
// once it has wrapped.
func (t *Tracer) Retained() int {
	if t == nil {
		return 0
	}
	return int(min(t.total.Load(), int64(len(t.ring))))
}

// Discarded reports how many spans were ever dropped unencoded. Once every
// root has ended, Total plus Discarded is the number of spans ended; until
// then, an open root's ended spans are waiting and counted in neither.
func (t *Tracer) Discarded() int64 {
	if t == nil {
		return 0
	}
	var n int64
	for i := range t.stages {
		st := &t.stages[i]
		st.mu.Lock()
		n += st.dropped
		st.mu.Unlock()
	}
	return n
}
