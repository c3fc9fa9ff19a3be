package trace

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The tracer's retention as it was before a retained span became a record:
// the ring holds the ended spans' storage itself, End swaps its span into
// the slot it claims, and the span it evicts goes onto a free list to be
// issued again. It stays here as the oracle the record ring is held to. The
// free list is one list, not striped: the oracle runs on one goroutine.

type oracleTracer struct {
	nowFn func() time.Time
	buf   []atomic.Pointer[oracleSpan]
	total atomic.Int64

	freeMu sync.Mutex
	free   *oracleSpan
}

type oracleSpan struct {
	mu     sync.Mutex
	gen    uint64        // counts up each time the storage is issued
	tracer *oracleTracer // nil once ended
	data   SpanData
	inline [inlineAttrs]Attr
	next   *oracleSpan
}

type oracleHandle struct {
	s   *oracleSpan
	gen uint64
}

func newOracle(now func() time.Time, capacity int) *oracleTracer {
	return &oracleTracer{nowFn: now, buf: make([]atomic.Pointer[oracleSpan], capacity)}
}

func (s *oracleSpan) open(gen uint64) bool { return s.gen == gen && s.tracer != nil }

func (t *oracleTracer) start(parent SpanContext, name string, kind Kind, attrs ...Attr) oracleHandle {
	d := SpanData{SpanID: SpanID(newID()), Name: name, Kind: kind, Start: t.nowFn()}
	if parent.Valid() {
		d.TraceID = parent.Trace
		d.Parent = parent.Span
	} else {
		d.TraceID = TraceID(newID())
	}
	t.freeMu.Lock()
	s := t.free
	if s != nil {
		t.free, s.next = s.next, nil
	}
	t.freeMu.Unlock()
	if s == nil {
		s = &oracleSpan{}
	}
	s.mu.Lock()
	s.gen++
	s.tracer = t
	s.data = d
	s.data.Attrs = append(s.inline[:0], attrs...)
	h := oracleHandle{s: s, gen: s.gen}
	s.mu.Unlock()
	return h
}

func (h oracleHandle) Context() SpanContext {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	if h.s.gen != h.gen {
		return SpanContext{}
	}
	return SpanContext{Trace: h.s.data.TraceID, Span: h.s.data.SpanID}
}

func (h oracleHandle) SetAttrs(attrs ...Attr) {
	h.s.mu.Lock()
	if h.s.open(h.gen) {
		h.s.data.Attrs = append(h.s.data.Attrs, attrs...)
	}
	h.s.mu.Unlock()
}

func (h oracleHandle) SetError(msg string) {
	if msg == "" {
		return
	}
	h.s.mu.Lock()
	if h.s.open(h.gen) {
		h.s.data.Err = msg
	}
	h.s.mu.Unlock()
}

func (h oracleHandle) End() {
	h.s.mu.Lock()
	if !h.s.open(h.gen) {
		h.s.mu.Unlock()
		return
	}
	t := h.s.tracer
	h.s.tracer = nil
	h.s.data.End = t.nowFn()
	h.s.mu.Unlock()
	t.collect(h.s)
}

// collect appends an ended span to the ring; the span it overwrites goes to
// the free list.
func (t *oracleTracer) collect(s *oracleSpan) {
	slot := (t.total.Add(1) - 1) % int64(len(t.buf))
	old := t.buf[slot].Swap(s)
	if old == nil {
		return
	}
	t.freeMu.Lock()
	old.next, t.free = t.free, old
	t.freeMu.Unlock()
}

func (t *oracleTracer) Spans() []SpanData {
	total, size := t.total.Load(), int64(len(t.buf))
	at := max(total-size, 0)
	out := make([]SpanData, 0, total-at)
	for ; at < total; at++ {
		slot := &t.buf[at%size]
		s := slot.Load()
		if s == nil {
			continue
		}
		s.mu.Lock()
		if slot.Load() == s {
			d := s.data
			d.Attrs = slices.Clone(d.Attrs)
			out = append(out, d)
		}
		s.mu.Unlock()
	}
	return out
}

func (t *oracleTracer) Retained() int { return int(min(t.total.Load(), int64(len(t.buf)))) }

// script reads a fuzz input as a sequence of tracer calls; past its end
// every read is zero.
type script struct{ b []byte }

func (s *script) more() bool { return len(s.b) > 0 }

func (s *script) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

// string is empty, a few bytes of the script (any bytes, so non-ASCII and
// invalid UTF-8 too), or longer than a slot, so that its record spills.
func (s *script) string() string {
	n := int(s.byte())
	switch {
	case n == 0:
		return ""
	case n%8 == 7:
		return strings.Repeat("xé", slotBytes/3+n)
	}
	n = min(n%24, len(s.b))
	str := string(s.b[:n])
	s.b = s.b[n:]
	return str
}

func (s *script) kind() Kind {
	switch c := int(s.byte()) % (len(vocabulary) + 3); c {
	case len(vocabulary):
		return "custom"
	case len(vocabulary) + 1:
		return ""
	case len(vocabulary) + 2:
		return Kind(s.string())
	default:
		return vocabulary[c]
	}
}

func (s *script) attrs() []Attr {
	attrs := make([]Attr, s.byte()%6)
	for i := range attrs {
		if key := s.string(); s.byte()%2 == 0 {
			attrs[i] = Str(key, s.string())
		} else {
			attrs[i] = Int(key, int64(s.byte())<<56>>(s.byte()%64)-int64(s.byte()))
		}
	}
	return attrs
}

// step moves the clock: by nanoseconds, by seconds, back, or by more than
// 2^32 s either way, where a record's times take their long form.
func (s *script) step() time.Duration {
	n := time.Duration(s.byte())
	switch s.byte() % 4 {
	case 0:
		return n
	case 1:
		return n*time.Second + n*time.Microsecond
	case 2:
		return -n * time.Millisecond
	default:
		return time.Duration(int64(n%3)-1) * 150 * 365 * 24 * time.Hour
	}
}

// seedScript writes a script of ops calls that script reads back as
// mostly starts and Ends, so that a ring of capacity+1 wraps many times,
// with strings of every kind it draws and every other call among them.
func seedScript(rng *rand.Rand, capacity byte, ops int) []byte {
	b := []byte{capacity, byte(rng.Intn(256)), byte(rng.Intn(3))}
	str := func() {
		switch n := rng.Intn(8); n {
		case 0, 7: // empty, or longer than a slot
			b = append(b, byte(n))
		default:
			b = append(b, byte(n))
			for i := 0; i < n; i++ {
				b = append(b, "abcé.-/z"[rng.Intn(8)])
			}
		}
	}
	attrs := func() {
		n := rng.Intn(5)
		b = append(b, byte(n))
		for i := 0; i < n; i++ {
			str()
			if typ := byte(rng.Intn(2)); typ == 0 {
				b = append(b, typ)
				str()
			} else {
				b = append(b, typ, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
			}
		}
	}
	started := 0
	for i := 0; i < ops; i++ {
		op := []byte{0, 1, 1, 1, 2, 3, 4, 4, 5, 5, 6, 7, 8, 9}[rng.Intn(14)]
		if started == 0 {
			op = 0
		}
		b = append(b, op)
		switch op {
		case 0, 1, 8, 9:
			if op == 1 {
				b = append(b, byte(rng.Intn(256)))
			} else if op == 9 {
				b = append(b, byte(rng.Intn(256)), byte(rng.Intn(256)))
			}
			str()
			b = append(b, byte(rng.Intn(256)))
			if b[len(b)-1]%byte(len(vocabulary)+3) == byte(len(vocabulary)+2) {
				str()
			}
			attrs()
			started++
		case 2:
			b = append(b, byte(rng.Intn(256)))
			attrs()
		case 3:
			b = append(b, byte(rng.Intn(256)))
			str()
		case 4, 5:
			b = append(b, byte(rng.Intn(256)))
		case 6:
			b = append(b, byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
	}
	return b
}

// FuzzRingAgreesWithOracle replays a script of starts (roots, children,
// children of another tracer's span and starts under Unsampled, which must
// start nothing), attributes, errors, Ends — twice, and through the
// handles of ended spans — and clock steps against the record ring and the pointer ring it
// replaced, and requires the same spans (times equal and in the same
// Location), the same Total and the same Retained after every step that
// reads them and at the end. IDs are the
// process's, so the two rings' differ; each side's are mapped to the
// other's as the spans start.
func FuzzRingAgreesWithOracle(f *testing.F) {
	for i, capacity := range []byte{0, 2, 7, 63} {
		f.Add(seedScript(rand.New(rand.NewSource(int64(i))), capacity, 40*int(capacity)+100))
	}
	f.Add([]byte{0, 0, 0, 1, 2, 3, 4, 4, 7, 0, 4, 0})
	f.Add(append([]byte{63, 1}, []byte("\x00\x05héllo\x01\x02\x07\x00\x04\x00\x04\x00\x06")...))
	locations := []*time.Location{time.UTC, time.FixedZone("X", 5*3600+1800), time.FixedZone("", -7*3600)}
	f.Fuzz(func(t *testing.T, b []byte) {
		s := &script{b: b}
		capacity := 1 + int(s.byte()%64)
		clock := time.Date(2016, 4, 13, 0, 0, 0, int(s.byte())*1e6, locations[int(s.byte())%len(locations)])
		now := func() time.Time { return clock }
		rec, orc := New(now, capacity), newOracle(now, capacity)

		type pair struct {
			h     Span
			o     oracleHandle
			ended bool
		}
		var handles []*pair
		pick := func() *pair { return handles[int(s.byte())%len(handles)] }
		ids := map[uint64]uint64{0: 0} // the record ring's IDs to the oracle's
		mapID := func(r, o uint64) {
			if got, ok := ids[r]; ok && got != o {
				t.Fatalf("ID %x maps to %x and to %x", r, got, o)
			}
			ids[r] = o
		}
		compare := func() {
			t.Helper()
			got, want := rec.Spans(), orc.Spans()
			if rec.Total() != orc.total.Load() || rec.Retained() != orc.Retained() || len(got) != len(want) {
				t.Fatalf("total %d, retained %d, %d spans; oracle %d, %d, %d",
					rec.Total(), rec.Retained(), len(got), orc.total.Load(), orc.Retained(), len(want))
			}
			spilled := 0
			for _, sl := range rec.ring[:rec.Retained()] {
				if sl.n == 0 {
					spilled++
				}
			}
			if len(rec.spills) != spilled {
				t.Fatalf("%d records kept as spills, %d slots spilled", len(rec.spills), spilled)
			}
			for i := range got {
				g, w := got[i], want[i]
				same := ids[uint64(g.SpanID)] == uint64(w.SpanID) && ids[uint64(g.TraceID)] == uint64(w.TraceID) &&
					ids[uint64(g.Parent)] == uint64(w.Parent) && g.Name == w.Name && g.Kind == w.Kind && g.Err == w.Err &&
					g.Start.Equal(w.Start) && g.Start.Location() == w.Start.Location() &&
					g.End.Equal(w.End) && g.End.Location() == w.End.Location() && slices.Equal(g.Attrs, w.Attrs)
				if !same {
					t.Fatalf("span %d of %d:\n got %+v\nwant %+v", i, len(got), g, w)
				}
			}
		}
		for s.more() {
			switch op := s.byte() % 10; {
			case op <= 1 || op == 9: // a root, a child of any span started so far, or of another tracer's
				var pr, po SpanContext
				if op == 1 && len(handles) > 0 {
					p := pick()
					if pr = p.h.Context(); !p.ended {
						po = p.o.Context()
					} else if pr.Valid() {
						t.Fatalf("an ended span's handle names it: %+v", pr)
					}
				} else if op == 9 {
					pr = SpanContext{Trace: TraceID(1<<62 | uint64(s.byte())), Span: SpanID(1<<62 | 1 + uint64(s.byte()))}
					po = pr
					mapID(uint64(pr.Span), uint64(po.Span))
				}
				name, kind, attrs := s.string(), s.kind(), s.attrs()
				p := &pair{h: rec.StartChild(pr, name, kind, attrs...), o: orc.start(po, name, kind, attrs...)}
				hc, oc := p.h.Context(), p.o.Context()
				mapID(uint64(hc.Span), uint64(oc.Span))
				mapID(uint64(hc.Trace), uint64(oc.Trace))
				handles = append(handles, p)
			case len(handles) == 0:
			case op == 2:
				p, attrs := pick(), s.attrs()
				p.h.SetAttrs(attrs...)
				p.o.SetAttrs(attrs...)
			case op == 3:
				p, msg := pick(), s.string()
				p.h.SetError(msg)
				p.o.SetError(msg)
			case op <= 5:
				p := pick()
				p.h.End()
				p.o.End()
				p.ended = true
			case op == 6:
				clock = clock.Add(s.step())
			case op == 7:
				compare()
			default: // under Unsampled: no span, in the ring or out of it
				name, kind, attrs := s.string(), s.kind(), s.attrs()
				if h := rec.StartChild(Unsampled, name, kind, attrs...); h != (Span{}) {
					t.Fatalf("a start under Unsampled returned a span: %+v", h.s.data)
				}
			}
		}
		compare()
	})
}
