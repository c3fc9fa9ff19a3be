package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic test clock ticking 1ms per Now call.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2016, 4, 13, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(time.Millisecond)
	return c.t
}

// Nil tracer and zero span: every method must be a safe no-op, because the
// whole proxy chain is instrumented unconditionally.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil tracer Spans = %v", got)
	}
	if got := tr.Total(); got != 0 {
		t.Fatalf("nil tracer Total = %d", got)
	}
	sp := tr.StartRoot("x", KindClient)
	if sp != (Span{}) {
		t.Fatal("nil tracer handed out a non-zero span")
	}
	sp.SetAttrs(Str("k", "v"))
	sp.SetError("boom")
	sp.End()
	sp.End()
	if sc := sp.Context(); sc.Valid() {
		t.Fatalf("nil span context valid: %+v", sc)
	}
	child := tr.StartChild(sp.Context(), "y", KindProxy)
	if child != (Span{}) {
		t.Fatal("nil tracer handed out a child span")
	}
}

// Parent links: children share the root's trace and point at their parent;
// an invalid parent context falls back to a fresh root trace.
func TestParentLinks(t *testing.T) {
	tr := New(newFakeClock().Now, 16)
	root := tr.StartRoot("probe", KindClient)
	child := tr.StartChild(root.Context(), "proxy", KindProxy)
	grand := tr.StartChild(child.Context(), "fetch", KindFetch)
	for _, sp := range []Span{grand, child, root} {
		sp.End()
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	byName := map[string]SpanData{}
	for _, d := range spans {
		byName[d.Name] = d
	}
	r, c, g := byName["probe"], byName["proxy"], byName["fetch"]
	if r.Parent != 0 {
		t.Fatalf("root has parent %v", r.Parent)
	}
	if c.TraceID != r.TraceID || c.Parent != r.SpanID {
		t.Fatalf("child links wrong: %+v vs root %+v", c, r)
	}
	if g.TraceID != r.TraceID || g.Parent != c.SpanID {
		t.Fatalf("grandchild links wrong: %+v vs child %+v", g, c)
	}
	if g.End.Before(g.Start) {
		t.Fatalf("timestamps inverted: %+v", g)
	}

	orphan := tr.StartChild(SpanContext{}, "orphan", KindDNS)
	orphan.End()
	od := tr.Spans()[3]
	if od.Parent != 0 || od.TraceID == r.TraceID || od.TraceID == 0 {
		t.Fatalf("invalid parent must start a fresh root trace: %+v", od)
	}
}

// End is idempotent and ordering survives ring wrap: the collector keeps
// the newest capacity spans in completion order.
func TestRingWrapAndIdempotentEnd(t *testing.T) {
	const capacity = 8
	tr := New(newFakeClock().Now, capacity)
	sp := tr.StartRoot("once", KindClient)
	sp.End()
	sp.End()
	if got := tr.Total(); got != 1 {
		t.Fatalf("double End recorded %d spans", got)
	}
	for i := 0; i < 3*capacity; i++ {
		s := tr.StartRoot(fmt.Sprintf("s%02d", i), KindClient)
		s.End()
	}
	spans := tr.Spans()
	if len(spans) != capacity {
		t.Fatalf("retained %d spans, want %d", len(spans), capacity)
	}
	if got := tr.Total(); got != 1+3*capacity {
		t.Fatalf("total = %d, want %d", got, 1+3*capacity)
	}
	// The retained window is the newest spans, oldest-first.
	for i, d := range spans {
		want := fmt.Sprintf("s%02d", 2*capacity+i)
		if d.Name != want {
			t.Fatalf("span %d = %q, want %q (full window %v)", i, d.Name, want, names(spans))
		}
	}
}

func names(spans []SpanData) []string {
	out := make([]string, len(spans))
	for i, d := range spans {
		out[i] = d.Name
	}
	return out
}

// The collector must be race-free under concurrent span creation and End
// across the wrap boundary (run with -race), and lose nothing doing it: a
// span lost or written out of order would show as a short window or a
// child retained without its root, and an ID handed out twice as a
// duplicate — across tracers too, the IDs being the process's.
func TestConcurrentCollect(t *testing.T) {
	const (
		workers = 8
		perW    = 100
		total   = 2 * workers * perW
	)
	seen := map[uint64]bool{}
	for _, capacity := range []int{64, total} {
		tr := New(nil, capacity)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perW; i++ {
					root := tr.StartRoot("root", KindClient, Int("w", int64(w)))
					child := tr.StartChild(root.Context(), "child", KindAttempt)
					child.SetAttrs(Int("i", int64(i)))
					child.SetError("err")
					child.End()
					root.End()
				}
			}(w)
		}
		wg.Wait()
		if got := tr.Total(); got != total {
			t.Fatalf("total = %d, want %d", got, total)
		}
		spans := tr.Spans()
		if len(spans) != capacity {
			t.Fatalf("retained = %d, want %d", len(spans), capacity)
		}
		retained := map[SpanID]bool{}
		for _, d := range spans {
			retained[d.SpanID] = true
			ids := []uint64{uint64(d.SpanID)}
			if d.Parent == 0 {
				ids = append(ids, uint64(d.TraceID)) // a root draws its trace's ID too
			}
			for _, id := range ids {
				if seen[id] {
					t.Fatalf("ID %d handed out twice", id)
				}
				seen[id] = true
			}
		}
		// Every worker ends a child before its root, so a retained child's
		// root is newer than it and retained too.
		for _, d := range spans {
			if d.Parent != 0 && !retained[d.Parent] {
				t.Fatalf("span %v retained without its parent %v, which ended after it", d.SpanID, d.Parent)
			}
		}
	}
}

// Header round-trip plus rejection of malformed wire forms.
func TestHeaderRoundTrip(t *testing.T) {
	sc := SpanContext{Trace: 0xdeadbeef, Span: 0x1234}
	h := FormatHeader(sc)
	if h != "v1;t=00000000deadbeef;s=0000000000001234" {
		t.Fatalf("header = %q", h)
	}
	if got := ParseHeader(h); got != sc {
		t.Fatalf("round trip = %+v, want %+v", got, sc)
	}
	if got := FormatHeader(SpanContext{}); got != "" {
		t.Fatalf("invalid context formatted as %q", got)
	}
	if h := FormatHeader(Unsampled); h != "v1;unsampled" || ParseHeader(h) != Unsampled {
		t.Fatalf("the unsampled mark formatted as %q, parsed back as %+v", h, ParseHeader(h))
	}
	if got := ParseHeader("v1;t=00000000DEADBEEF;s=0000000000001234"); got != sc {
		t.Errorf("upper-case header parsed as %+v, want %+v", got, sc)
	}
	// Only FormatHeader's fixed form is read: reordered or unpadded fields
	// are rejected like any other malformed header.
	for _, bad := range []string{
		"", "v2;t=1;s=2", "v1;t=1", "v1;t=xyz;s=2", "v1;t=1;s=", "v1;s=2;x=9",
		"v1;t=0;s=0", "v1;t=1;s=2;extra=3",
		"v1;s=0000000000001234;t=00000000deadbeef", "v1;t=deadbeef;s=1234",
		"v1;t=00000000deadbeeg;s=0000000000001234", "v1;t=0000000000000000;s=0000000000001234",
		"v1;t=00000000deadbeef;s=0000000000000000", "v1;t=00000000deadbeef;x=0000000000001234",
		"v1;Unsampled", "v1;unsampled;", "v2;unsampled", "v1;unsampled=1",
	} {
		if got := ParseHeader(bad); got != (SpanContext{}) {
			t.Errorf("ParseHeader(%q) = %+v, want the zero context", bad, got)
		}
	}
}

// Chrome export: structurally valid trace_event JSON — the shape Perfetto
// requires (complete events with name/ph/ts/dur, IDs in args).
func TestWriteChromeTrace(t *testing.T) {
	tr := New(newFakeClock().Now, 16)
	root := tr.StartRoot("probe.dns", KindClient, Str("country", "DE"))
	child := tr.StartChild(root.Context(), "proxy.get", KindProxy)
	child.SetError("timeout")
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(f.TraceEvents) != 2 {
		t.Fatalf("events = %d, want 2", len(f.TraceEvents))
	}
	for _, ev := range f.TraceEvents {
		if ev["ph"] != "X" {
			t.Fatalf("event phase %v, want X", ev["ph"])
		}
		for _, k := range []string{"name", "cat", "ts", "dur", "pid", "tid"} {
			if _, ok := ev[k]; !ok {
				t.Fatalf("event missing %q: %v", k, ev)
			}
		}
		args, ok := ev["args"].(map[string]any)
		if !ok {
			t.Fatalf("event args missing: %v", ev)
		}
		if args["trace_id"] == "" || args["span_id"] == "" {
			t.Fatalf("event args missing ids: %v", args)
		}
	}
}

// JSONL export round-trips through SpanData, one object per line.
func TestWriteJSONL(t *testing.T) {
	tr := New(newFakeClock().Now, 16)
	root := tr.StartRoot("probe", KindClient, Str("zid", "z1"))
	tr.StartChild(root.Context(), "fetch", KindFetch).End()
	root.End()

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	var d SpanData
	if err := json.Unmarshal([]byte(lines[1]), &d); err != nil {
		t.Fatal(err)
	}
	if d.Name != "probe" || d.Str("zid") != "z1" {
		t.Fatalf("decoded span = %+v", d)
	}
	if d.SpanID == 0 || d.TraceID == 0 {
		t.Fatalf("ids did not round-trip: %+v", d)
	}
}

// The slog wrapper injects trace_id/span_id from the context into every
// record, and stays silent for untraced contexts.
func TestLogHandlerInjection(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(NewLogHandler(slog.NewJSONHandler(&buf, nil)))

	sc := SpanContext{Trace: 0xabc, Span: 0xdef}
	logger.InfoContext(NewContext(context.Background(), sc), "traced", "k", "v")
	logger.InfoContext(context.Background(), "untraced")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("records = %d, want 2", len(lines))
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["trace_id"] != sc.Trace.String() || rec["span_id"] != sc.Span.String() {
		t.Fatalf("traced record missing ids: %v", rec)
	}
	if rec["k"] != "v" {
		t.Fatalf("user attrs lost: %v", rec)
	}
	rec = map[string]any{}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if _, ok := rec["trace_id"]; ok {
		t.Fatalf("untraced record gained a trace id: %v", rec)
	}
}

// TestSpanAllocs holds a span to one allocation from start to the
// collector, while the ring fills and once it has wrapped: the span itself.
// Attributes given at the start and added later land in its inline room,
// and End encodes it into its slot. A whole trace, root and five children,
// is six, and a chain under Unsampled starts nothing and allocates nothing.
// NewContext costs one, and none for Unsampled over context.Background().
func TestSpanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	now := time.Unix(0, 0)
	tr := New(func() time.Time { return now }, 512)
	// Another tracer's span: its children here commit at their own End.
	parent := SpanContext{Trace: 1 << 62, Span: 1<<62 + 1}
	fetch := func() {
		s := tr.StartChild(parent, "node.fetch", KindFetch, Str("zid", "z1"), Str("host", "h"))
		s.SetAttrs(Str("path", "/"))
		s.SetAttrs(Int("status", 200))
		s.End()
	}
	if got := testing.AllocsPerRun(200, fetch); got != 1 {
		t.Errorf("StartChild + 2 SetAttrs + End allocates %.0f times while the ring fills, want 1", got)
	}
	for tr.Total() <= 512 {
		fetch()
	}
	if got := testing.AllocsPerRun(200, fetch); got != 1 {
		t.Errorf("StartChild + 2 SetAttrs + End allocates %.0f times once the ring has wrapped, want 1", got)
	}
	spans := tr.Spans()
	if last := spans[len(spans)-1]; len(last.Attrs) != 4 || last.Str("path") != "/" || last.Attr("status") != int64(200) {
		t.Fatalf("collected span lost attributes: %+v", last)
	}
	probe := func() {
		root := tr.StartRoot("probe.dns", KindClient, Str("session", "s00000001"), Str("country", "DE"))
		for i := 0; i < 5; i++ {
			tr.StartChild(root.Context(), "node.fetch", KindFetch, Str("zid", "z1")).End()
		}
		root.End()
	}
	if got := testing.AllocsPerRun(200, probe); got != 6 {
		t.Errorf("a root and five children allocate %.0f times, want 6", got)
	}

	ctx := context.Background()
	var carried context.Context
	if got := testing.AllocsPerRun(200, func() { carried = NewContext(ctx, parent) }); got > 1 {
		t.Errorf("NewContext allocates %.0f times, ceiling 1", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if FromContext(carried) != parent {
			t.Fatal("span context lost")
		}
	}); got != 0 {
		t.Errorf("FromContext allocates %.0f times, want 0", got)
	}

	var unsampled context.Context
	if got := testing.AllocsPerRun(200, func() { unsampled = NewContext(ctx, Unsampled) }); got != 0 {
		t.Errorf("NewContext(context.Background(), Unsampled) allocates %.0f times, want 0", got)
	}
	if FromContext(unsampled) != Unsampled {
		t.Fatalf("the shared unsampled context carries %+v", FromContext(unsampled))
	}
	before := tr.Total()
	chain := func() {
		get := tr.StartChild(FromContext(unsampled), "proxy.get", KindProxy, Str("target", "http://h/"))
		for i := 0; i < 4; i++ {
			s := tr.StartChild(FromContext(unsampled), "node.fetch", KindFetch, Str("zid", "z1"))
			s.SetAttrs(Int("status", 200))
			s.End()
		}
		get.End()
	}
	if got := testing.AllocsPerRun(200, chain); got != 0 || tr.Total() != before {
		t.Errorf("a chain of five spans under Unsampled allocates %.0f times and records %d spans, want 0 and 0", got, tr.Total()-before)
	}
}

// TestUnsampledStartsNothing: under Unsampled a tracer hands out the zero
// Span, records nothing, and a context carrying the mark hands it on, so
// that the next hop's spans are not started either, nor stamped on its log
// records.
func TestUnsampledStartsNothing(t *testing.T) {
	tr := New(newFakeClock().Now, 16)
	ctx := NewContext(context.Background(), Unsampled)
	if FromContext(ctx) != Unsampled || Unsampled.Valid() {
		t.Fatalf("the context carries %+v, valid %v", FromContext(ctx), Unsampled.Valid())
	}
	s := tr.StartChild(FromContext(ctx), "proxy.get", KindProxy)
	s.SetAttrs(Str("k", "v"))
	s.End()
	if s != (Span{}) || tr.Total() != 0 || s.Context().Valid() {
		t.Fatalf("a start under Unsampled gave %+v and recorded %d spans", s, tr.Total())
	}
	var buf bytes.Buffer
	slog.New(NewLogHandler(slog.NewJSONHandler(&buf, nil))).InfoContext(ctx, "unsampled")
	if strings.Contains(buf.String(), "trace_id") {
		t.Fatalf("an unsampled request's record carries a trace id: %s", buf.String())
	}
}

// TestForeignRootCommitsAtEnd: a span under another tracer's span — a
// daemon's, under the context a request carried in — is recorded at its own
// End, in that span's trace and under it.
func TestForeignRootCommitsAtEnd(t *testing.T) {
	tr := New(newFakeClock().Now, 16)
	remote := SpanContext{Trace: 0xdeadbeef, Span: 0x1234}
	get := tr.StartChild(remote, "proxy.get", KindProxy)
	attempt := tr.StartChild(get.Context(), "proxy.attempt", KindAttempt)
	attempt.End()
	if got := names(tr.Spans()); !slices.Equal(got, []string{"proxy.attempt"}) {
		t.Fatalf("recorded %v at the child's End, want [proxy.attempt]", got)
	}
	get.End()
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].TraceID != remote.Trace || spans[1].Parent != remote.Span || spans[0].Parent != spans[1].SpanID {
		t.Fatalf("foreign-rooted spans: %+v", spans)
	}
}

// TestSpanFrozenAtEnd: what the collector reports is the span as End left
// it, whatever is called on the span afterwards, and an ended span names no
// context for children to start under.
func TestSpanFrozenAtEnd(t *testing.T) {
	tr := New(nil, 8)
	s := tr.StartRoot("probe", KindClient, Str("a", "1"))
	s.End()
	s.SetAttrs(Str("late", "x"))
	s.SetError("late")
	s.End()
	if sc := s.Context(); sc != (SpanContext{}) {
		t.Fatalf("an ended span's context is %+v, want the zero context", sc)
	}
	spans := tr.Spans()
	if len(spans) != 1 || len(spans[0].Attrs) != 1 || spans[0].Err != "" || tr.Total() != 1 {
		t.Fatalf("span changed after End: %+v", spans)
	}
}

// TestSpansReturnsCopies: a record handed out by Spans is the caller's —
// overwriting its ring slot afterwards changes nothing in it.
func TestSpansReturnsCopies(t *testing.T) {
	const capacity = 8
	tr := New(newFakeClock().Now, capacity)
	s := tr.StartRoot("kept", KindClient, Str("k", "v"))
	s.SetAttrs(Int("n", 7))
	s.End()
	held := tr.Spans()[0]
	for i := 0; i < 4*capacity; i++ {
		tr.StartRoot("overwriter", KindDNS, Str("k", "other"), Int("n", 8)).End()
	}
	if held.Name != "kept" || len(held.Attrs) != 2 || held.Str("k") != "v" || held.Attr("n") != int64(7) {
		t.Fatalf("a record from Spans changed when its slot was overwritten: %+v", held)
	}
	if got, want := tr.Retained(), len(tr.Spans()); got != want || got != capacity {
		t.Fatalf("Retained = %d, Spans returns %d, capacity %d", got, want, capacity)
	}
}

// TestSpansWholeUnderReuse (run with -race): two goroutines start and end
// spans across many ring wraps while a third reads Spans. Every record it is
// handed is whole: the attributes are the ones its own span was started and
// decorated with, however often its slot has been overwritten since.
func TestSpansWholeUnderReuse(t *testing.T) {
	const (
		capacity = 32
		perW     = 40 * capacity
	)
	tr := New(nil, capacity)
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int64) {
			defer writers.Done()
			for i := int64(0); i < perW; i++ {
				tag := w<<32 | i
				s := tr.StartRoot("probe", KindClient, Int("tag", tag))
				id := int64(s.Context().Span)
				s.SetAttrs(Int("id", id), Int("tag2", tag))
				s.End()
				s.SetAttrs(Int("late", 1)) // ended: inert
			}
		}(int64(w))
	}
	done := make(chan struct{})
	go func() { writers.Wait(); close(done) }()
	check := func() {
		for _, d := range tr.Spans() {
			if len(d.Attrs) != 3 || d.Attr("id") != int64(d.SpanID) || d.Attr("tag") != d.Attr("tag2") || d.End.IsZero() {
				t.Errorf("torn record: %+v", d)
				return
			}
		}
	}
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		check()
	}
	if got := tr.Total(); got != 2*perW {
		t.Fatalf("total = %d, want %d", got, 2*perW)
	}
	if got := len(tr.Spans()); got != capacity {
		t.Fatalf("retained = %d after the writers finished, want %d", got, capacity)
	}
}

// TestContextKeepsParentValuesAndCancellation: the carrying context is a
// context in every other respect.
func TestContextKeepsParentValuesAndCancellation(t *testing.T) {
	type k struct{}
	base, cancel := context.WithCancel(context.WithValue(context.Background(), k{}, "v"))
	sc := SpanContext{Trace: 1, Span: 2}
	ctx := NewContext(base, sc)
	inner := NewContext(ctx, SpanContext{Trace: 1, Span: 3})
	if ctx.Value(k{}) != "v" || FromContext(ctx) != sc || FromContext(inner).Span != 3 {
		t.Fatalf("values: %v %v %v", ctx.Value(k{}), FromContext(ctx), FromContext(inner))
	}
	child, stop := context.WithCancel(inner)
	defer stop()
	cancel()
	select {
	case <-child.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancelling the parent did not reach a context derived from the carrier")
	}
	if inner.Err() == nil {
		t.Fatal("carrier does not report its parent's error")
	}
}

// TestRingHoldsNoPointers: a ring slot is plain bytes and integers, so the
// garbage collector never scans the ring, however many spans it retains.
func TestRingHoldsNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("slot", reflect.TypeOf(slot{}))
}

// TestRetainedBytesPerSpan fills a default ring with node.fetch-shaped
// spans, each naming a host of its own as a crawl's do, and holds what the
// retained window costs on the heap to a slot's worth and a little: the
// record holds a copy of the host, not the string, and nothing of the span
// that wrote it. A ring of the spans themselves would cost about 400 bytes
// a span, the span and the host it pinned.
func TestRetainedBytesPerSpan(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates alongside the heap being measured")
	}
	live := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	now := time.Date(2016, 4, 13, 0, 0, 0, 0, time.UTC)
	before := live()
	tr := New(func() time.Time { return now }, 0)
	root := tr.StartRoot("probe.dns", KindClient, Str("session", "s00019764"), Str("country", "DE"))
	for i := 0; i < defaultCapacity; i++ {
		host := fmt.Sprintf("d1-s%08d.probe.tft-example.net", i)
		s := tr.StartChild(root.Context(), "node.fetch", KindFetch, Str("zid", "z00000353"), Str("host", host), Str("path", "/"))
		s.SetAttrs(Int("status", 200))
		s.End()
	}
	root.End()
	perSpan := float64(live()-before) / float64(tr.Retained())
	runtime.KeepAlive(tr)
	if tr.Retained() != defaultCapacity || perSpan > 160 {
		t.Fatalf("%d spans retained at %.1f bytes each, ceiling 160", tr.Retained(), perSpan)
	}
	t.Logf("%.1f bytes a retained span", perSpan)
}

// BenchmarkSpanParallel is the tracer's own layer: each op is one probe's
// root span and the five spans of its proxy chain under it (proxy.get,
// proxy.resolve, proxy.attempt, node.resolve, node.fetch), started, decorated
// and ended as the crawl does, on a default ring that has wrapped and a
// clock that does not move, as a crawl's virtual clock mostly does not. End
// is a sampled probe's, and Unsampled one outside the sample, whose root is
// never opened and whose chain starts under Unsampled.
func BenchmarkSpanParallel(b *testing.B) {
	for _, name := range []string{"End", "Unsampled"} {
		b.Run(name, func(b *testing.B) { benchmarkProbeSpans(b, name == "End") })
	}
}

// under is the context a hop's children start under, as the super proxy's
// orParent picks it: the hop's span's, or its parent's when it has none.
func under(s Span, parent SpanContext) SpanContext {
	if sc := s.Context(); sc.Valid() {
		return sc
	}
	return parent
}

func benchmarkProbeSpans(b *testing.B, sampled bool) {
	now := time.Date(2016, 4, 13, 0, 0, 0, 0, time.UTC)
	tr := New(func() time.Time { return now }, 0)
	for tr.Total() < defaultCapacity {
		tr.StartRoot("warm-up", KindClient).End()
	}
	const (
		host = "d1-s00019764.probe.tft-example.net"
		zid  = "z00000353"
	)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			var root Span
			parent := Unsampled
			if sampled {
				root = tr.StartRoot("probe.dns", KindClient, Str("session", "s00019764"), Str("country", "DE"))
				parent = root.Context()
			}
			get := tr.StartChild(parent, "proxy.get", KindProxy, Str("target", "http://"+host+"/"))
			parent = under(get, parent)
			resolve := tr.StartChild(parent, "proxy.resolve", KindDNS, Str("host", host))
			resolve.SetAttrs(Int("rcode", 0))
			resolve.End()
			attempt := tr.StartChild(parent, "proxy.attempt", KindAttempt, Str("zid", zid))
			parent = under(attempt, parent)
			lookup := tr.StartChild(parent, "node.resolve", KindDNS, Str("zid", zid), Str("name", host))
			lookup.SetAttrs(Int("rcode", 0))
			lookup.End()
			fetch := tr.StartChild(parent, "node.fetch", KindFetch, Str("zid", zid), Str("host", host), Str("path", "/"))
			fetch.SetAttrs(Int("status", 200))
			fetch.End()
			attempt.End()
			get.End()
			root.SetAttrs(Str("zid", zid), Str("outcome", "ok"))
			root.End()
		}
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(6*b.N), "ns/span")
}
