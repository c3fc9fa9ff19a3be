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
	// unsampled makes the context Unsampled.
	unsampled bool
}

// Unsampled is the context of a request outside the trace sample: a span
// started under it is the zero Span, and NewContext and FormatHeader carry
// it to the next hop, so that no hop roots a trace of its own for the
// request. It names no span, so it is not Valid.
var Unsampled = SpanContext{unsampled: true}

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

// Span is a handle to one in-flight operation, created by a Tracer and
// finished with End, at which point the span is encoded into the tracer's
// ring. From End on, SetAttrs, SetError and End change nothing and Context
// is the zero context. The zero Span (what a nil *Tracer hands out, and any
// tracer under Unsampled) is a valid no-op, and all methods are safe for
// concurrent use.
type Span struct{ s *span }

// span is an open span. mu guards ended, and data until ended is set.
type span struct {
	mu     sync.Mutex
	ended  bool
	tracer *Tracer

	data SpanData
	// inline is where data.Attrs starts out: room for what the proxy chain's
	// spans carry, so that a span's attributes cost no allocation of their
	// own.
	inline [inlineAttrs]Attr
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
	if !h.s.ended {
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
	if !h.s.ended {
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
	if !h.s.ended {
		h.s.data.Err = msg
	}
	h.s.mu.Unlock()
}

// End closes the span, stamping the end time and handing it to the
// collector. Idempotent: only the first End records.
func (h Span) End() {
	s := h.s
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.End = s.tracer.now()
	s.mu.Unlock()
	// Nothing writes data once the span has ended: retire reads it without
	// the lock.
	s.tracer.retire(&s.data)
}

// defaultCapacity bounds a tracer's span memory, small enough to cap a
// long-lived daemon's footprint: at 120 bytes a span, 2.0 MB. It is not a
// crawl's worth of spans: a Scale 0.05 DNS crawl (seed 20160413) would end
// 0.76 M over 103 K sessions. A crawl traces only its sample
// (core.CrawlConfig.TraceSample), every 512th session's whole trace, and the
// ring holds the last spans of it. Total counts every span recorded.
const defaultCapacity = 16384

// lastID hands out process-unique span and trace IDs. A single counter
// shared by every tracer keeps IDs unique even when several worlds (the
// all-experiments campaign) trace concurrently.
var lastID atomic.Uint64

func newID() uint64 { return lastID.Add(1) }

// Tracer creates spans and retains finished ones in a fixed-capacity ring
// (oldest spans are overwritten once the ring wraps; Total reports how
// many were ever recorded). A nil *Tracer is a valid no-op sink.
//
// Which requests are traced is decided before they start, by whoever
// starts them: a sampled request's spans are each recorded at their own
// End, and a request outside the sample carries Unsampled, under which no
// span is started at all.
type Tracer struct {
	nowFn func() time.Time
	// base is the tracer's first clock reading, without its monotonic
	// reading: a retained span's times are offsets from it, and come back
	// in its Location.
	base time.Time

	// mu guards the ring: an ended span is encoded into slot total % len,
	// and total counts it, so completion order is the order of the Ends
	// taking mu. The slots hold no pointer, so the garbage collector never
	// scans them.
	mu    sync.Mutex
	ring  []slot
	total int64
	// spills holds the records longer than a slot, by slot index.
	spills map[int64][]byte
}

// slot is one retained span, as a record (record.go).
type slot struct {
	n   uint8 // the record's length in rec; 0 when it is in the tracer's spills
	rec [slotBytes]byte
}

// slotBytes makes a slot 120 bytes. That holds every span of a clean
// probe in each of the five crawls with IDs of up to four varint bytes, so
// what spills is a violating probe's root or a span with a long error.
const slotBytes = 119

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
	return &Tracer{nowFn: now, base: now().Round(0), ring: make([]slot, capacity), spills: map[int64][]byte{}}
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
// callers that never propagated context; under Unsampled it starts nothing
// and returns the zero Span.
func (t *Tracer) StartChild(parent SpanContext, name string, kind Kind, attrs ...Attr) Span {
	return t.start(parent, name, kind, attrs)
}

//tftlint:hotpath
func (t *Tracer) start(parent SpanContext, name string, kind Kind, attrs []Attr) Span {
	if t == nil || parent.unsampled {
		return Span{}
	}
	// Without the lock: no handle to the span is out yet.
	s := &span{tracer: t}
	d := &s.data
	d.SpanID, d.Name, d.Kind, d.Start = SpanID(newID()), name, kind, t.now()
	if parent.Valid() {
		d.TraceID, d.Parent = parent.Trace, parent.Span
	} else {
		d.TraceID = TraceID(newID())
	}
	// A copy, so that the caller's variadic slice stays on its stack.
	d.Attrs = append(s.inline[:0], attrs...)
	return Span{s}
}

// retire encodes an ended span into the next ring slot.
//
//tftlint:hotpath
func (t *Tracer) retire(d *SpanData) {
	t.mu.Lock()
	i := t.total % int64(len(t.ring))
	sl := &t.ring[i]
	if rec := t.appendRecord(sl.rec[:0], d); len(rec) > len(sl.rec) { // appending moved it off the slot
		sl.n = 0
		t.spills[i] = rec
	} else {
		if sl.n == 0 { // the record overwritten spilled, or there was none
			delete(t.spills, i)
		}
		sl.n = uint8(len(rec))
	}
	t.total++
	t.mu.Unlock()
}

// Spans returns the retained spans in completion order, decoded: the
// records are the caller's.
func (t *Tracer) Spans() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	size := int64(len(t.ring))
	at := max(t.total-size, 0) // the oldest retained span
	out := make([]SpanData, 0, t.total-at)
	for ; at < t.total; at++ {
		i := at % size
		rec := t.ring[i].rec[:t.ring[i].n]
		if len(rec) == 0 {
			rec = t.spills[i]
		}
		out = append(out, t.decode(string(rec)))
	}
	return out
}

// Total reports how many spans were ever recorded, including overwritten
// ones.
func (t *Tracer) Total() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Retained reports how many spans Spans would return: the ring's capacity
// once it has wrapped.
func (t *Tracer) Retained() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(min(t.total, int64(len(t.ring))))
}
