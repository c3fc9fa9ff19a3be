package trace

import (
	"slices"
	"testing"
	"unsafe"
)

// probeTrace starts a root and two children under it, a chain, and ends the
// children: what a probe's root sees when it ends.
func probeTrace(tr *Tracer, name string) (root, child, grand Span) {
	root = tr.StartRoot(name, KindClient)
	child = tr.StartChild(root.Context(), name+".child", KindProxy)
	grand = tr.StartChild(child.Context(), name+".grand", KindFetch)
	grand.End()
	child.End()
	return root, child, grand
}

// TestRootDecidesItsTrace: a root's children wait for it, then a Discard
// drops them with it, unencoded, and an End commits them, before the root
// and in the order they ended.
func TestRootDecidesItsTrace(t *testing.T) {
	tr := New(newFakeClock().Now, 16)
	root, _, _ := probeTrace(tr, "dropped")
	if tr.Total() != 0 {
		t.Fatalf("%d spans committed while their root is open", tr.Total())
	}
	root.Discard()
	if tr.Total() != 0 || len(tr.Spans()) != 0 || tr.Discarded() != 3 {
		t.Fatalf("a discarded trace left %d spans committed, %d discarded: %v", tr.Total(), tr.Discarded(), names(tr.Spans()))
	}
	root, _, _ = probeTrace(tr, "kept")
	root.End()
	if got, want := names(tr.Spans()), []string{"kept.grand", "kept.child", "kept"}; !slices.Equal(got, want) {
		t.Fatalf("committed %v, want %v", got, want)
	}
	if tr.Discarded() != 3 {
		t.Fatalf("Discarded = %d after a committed trace, want 3", tr.Discarded())
	}
}

// TestKeepOverridesDiscard: one span of the trace calling Keep, before or
// after it ends, commits the whole trace when its root discards it.
func TestKeepOverridesDiscard(t *testing.T) {
	for _, keepAfterEnd := range []bool{false, true} {
		tr := New(newFakeClock().Now, 16)
		root := tr.StartRoot("probe", KindClient)
		retry := tr.StartChild(root.Context(), "proxy.attempt", KindAttempt)
		clean := tr.StartChild(root.Context(), "proxy.get", KindProxy)
		if keepAfterEnd {
			retry.End()
			retry.Keep() // stale: inert
			clean.Keep()
		} else {
			retry.Keep()
			retry.End()
		}
		clean.End()
		root.Discard()
		if got := names(tr.Spans()); len(got) != 3 || got[2] != "probe" || tr.Discarded() != 0 {
			t.Fatalf("keep after end %v: committed %v, discarded %d; want the whole trace", keepAfterEnd, got, tr.Discarded())
		}
	}
}

// TestLateChildFollowsItsRoot: a span that ends after its root follows the
// root's decision while the stage remembers it, and commits at its own End
// once a newer root has claimed the stage.
func TestLateChildFollowsItsRoot(t *testing.T) {
	tr := New(newFakeClock().Now, 64)
	for _, commit := range []bool{true, false} {
		root := tr.StartRoot("root", KindClient)
		late := tr.StartChild(root.Context(), "late", KindTunnel)
		before := tr.Total()
		if commit {
			root.End()
		} else {
			root.Discard()
		}
		discarded := tr.Discarded()
		late.End()
		if commit && (tr.Total() != before+2 || tr.Spans()[tr.Retained()-1].Name != "late") {
			t.Fatalf("a committed root's late child was not committed: %v", names(tr.Spans()))
		}
		if !commit && (tr.Total() != before || tr.Discarded() != discarded+1) {
			t.Fatalf("a discarded root's late child was committed: %v", names(tr.Spans()))
		}
	}

	root := tr.StartRoot("root", KindClient)
	late := tr.StartChild(root.Context(), "late", KindTunnel)
	id := root.Context().Trace
	root.Discard()
	for i := 0; ; i++ {
		if i == 8*numStages {
			t.Fatal("no root claimed the discarded root's stage again")
		}
		next := tr.StartRoot("next", KindClient)
		reused := next.Context().Trace%numStages == id%numStages
		next.End()
		if reused {
			break
		}
	}
	before := tr.Total()
	late.End()
	if tr.Total() != before+1 || tr.Spans()[tr.Retained()-1].Name != "late" {
		t.Fatalf("a late child whose stage was reused did not commit at its End: %v", names(tr.Spans()))
	}
}

// TestForeignRootCommitsAtEnd: a span under another tracer's span — a
// daemon's, under the context a request carried in — waits for nothing, and
// Discard on it is End.
func TestForeignRootCommitsAtEnd(t *testing.T) {
	tr := New(newFakeClock().Now, 16)
	remote := SpanContext{Trace: 0xdeadbeef, Span: 0x1234}
	get := tr.StartChild(remote, "proxy.get", KindProxy)
	attempt := tr.StartChild(get.Context(), "proxy.attempt", KindAttempt)
	attempt.End()
	if got := names(tr.Spans()); !slices.Equal(got, []string{"proxy.attempt"}) {
		t.Fatalf("committed %v at the child's End, want [proxy.attempt]", got)
	}
	get.Discard()
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].TraceID != remote.Trace || spans[1].Parent != remote.Span || spans[0].Parent != spans[1].SpanID {
		t.Fatalf("foreign-rooted spans: %+v", spans)
	}
}

// TestStaleHandleAfterDiscard: a discarded span's handle names nothing and
// changes nothing, even once its storage carries another trace's root: it
// cannot keep, decorate, end or discard that trace.
func TestStaleHandleAfterDiscard(t *testing.T) {
	tr := New(newFakeClock().Now, 16)
	stale := tr.StartRoot("old", KindClient)
	stale.Discard()
	tenant := tr.StartRoot("tenant", KindClient)
	if tenant.s != stale.s {
		t.Fatal("the discarded root's storage was not issued next: the test would pass vacuously")
	}
	if got := stale.s.data.Name; got != "tenant" {
		t.Fatalf("reissued storage holds %q", got)
	}
	stale.Keep()
	stale.SetAttrs(Str("late", "x"))
	stale.End()
	stale.Discard()
	if stale.Context().Valid() || tr.Total() != 0 || tr.Discarded() != 1 {
		t.Fatalf("stale handle acted: context %+v, total %d, discarded %d", stale.Context(), tr.Total(), tr.Discarded())
	}
	tenant.Discard()
	if tr.Total() != 0 || tr.Discarded() != 2 {
		t.Fatalf("the tenant's trace was kept through a stale handle: total %d, discarded %d", tr.Total(), tr.Discarded())
	}
}

// TestDroppedStorageIsCleared: storage back on the free list holds nothing
// of the span that used it, so that it pins none of the strings it held.
func TestDroppedStorageIsCleared(t *testing.T) {
	tr := New(newFakeClock().Now, 16)
	root, child, _ := probeTrace(tr, "probe")
	root.SetAttrs(Str("zid", "z1"))
	root.Discard()
	for _, s := range []*span{root.s, child.s} {
		if s.data.Name != "" || s.data.Attrs != nil || s.inline != [inlineAttrs]Attr{} {
			t.Fatalf("dropped storage still holds %+v", s.data)
		}
	}
}

// TestOverDeepTraceIsKeptWhole: a trace that outgrows its stage commits its
// spans past stageDepth as they end, so its root's Discard commits the rest
// rather than leave those without their root and parents.
func TestOverDeepTraceIsKeptWhole(t *testing.T) {
	tr := New(newFakeClock().Now, 4*stageDepth)
	root := tr.StartRoot("probe", KindClient)
	mid := tr.StartChild(root.Context(), "proxy.get", KindProxy)
	for i := 0; i < stageDepth+10; i++ {
		tr.StartChild(mid.Context(), "node.fetch", KindFetch).End()
	}
	if tr.Total() == 0 {
		t.Fatal("nothing committed past the stage's depth; the test proves nothing")
	}
	root.Discard()
	mid.End() // after its root: it follows the trace's decision
	spans := tr.Spans()
	ids := map[SpanID]bool{}
	for _, d := range spans {
		ids[d.SpanID] = true
	}
	for _, d := range spans {
		if d.Parent != 0 && !ids[d.Parent] {
			t.Errorf("%s committed without its parent", d.Name)
		}
	}
	if want := stageDepth + 12; len(spans) != want || tr.Discarded() != 0 {
		t.Errorf("committed %d spans and discarded %d; want all %d kept", len(spans), tr.Discarded(), want)
	}
}

// TestTotalPlusDiscardedCountsEnded: every span ended is committed or
// dropped, exactly once, once its root has ended — over a mix of kept,
// discarded, late and over-deep traces.
func TestTotalPlusDiscardedCountsEnded(t *testing.T) {
	tr := New(newFakeClock().Now, 32)
	ended := int64(0)
	var late []Span
	for i := 0; i < 300; i++ {
		root := tr.StartRoot("root", KindClient)
		n := i % 5
		if i%50 == 0 {
			n = stageDepth + 10 // past what a stage parks
		}
		for j := 0; j < n; j++ {
			c := tr.StartChild(root.Context(), "child", KindFetch)
			if j == 2 && i%3 == 0 {
				late = append(late, c)
				continue
			}
			if i%7 == 0 && j == 0 {
				c.Keep()
			}
			c.End()
			ended++
		}
		if i%4 == 0 {
			root.End()
		} else {
			root.Discard()
		}
		ended++
	}
	for _, c := range late {
		c.End()
		ended++
	}
	if got := tr.Total() + tr.Discarded(); got != ended {
		t.Fatalf("Total %d + Discarded %d = %d, %d spans ended", tr.Total(), tr.Discarded(), got, ended)
	}
}

// TestStageFillsItsLines: a stage is 128 bytes, two cache lines of its own
// in an array, so that neighbouring stages' roots share none.
func TestStageFillsItsLines(t *testing.T) {
	if size := unsafe.Sizeof(stage{}); size != 128 {
		t.Fatalf("a stage is %d bytes, want 128", size)
	}
}
