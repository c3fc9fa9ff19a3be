package simnet

import (
	"crypto/sha256"
	"errors"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"testing"
)

// patterned returns n bytes no two windows of which look alike, so a copy
// that lands at the wrong offset changes the hash.
func patterned(n int) []byte {
	b := make([]byte, n)
	state := uint32(n)
	for i := range b {
		state = state*1664525 + 1013904223
		b[i] = byte(state >> 24)
	}
	return b
}

// skipIfPoolLossy skips tests that rely on sync.Pool handing back what was
// put: under the race detector it drops Puts at random.
func skipIfPoolLossy(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
}

// TestGrownRingStorageIsRecycled: an inline handler that out-writes the
// window makes its ring grow. Once one dial has paid for the grown buffer,
// later dials reuse it: what a dial still allocates is its conn (128
// bytes), against 512 KB before grown storage was pooled.
func TestGrownRingStorageIsRecycled(t *testing.T) {
	skipIfPoolLossy(t)
	const bodySize = 258 << 10
	f := NewFabric()
	body := patterned(bodySize)
	want := sha256.Sum256(body)
	f.HandleTCP(hostB, 80, func(conn net.Conn) {
		conn.Write(body)
		conn.Close()
	})
	got := make([]byte, bodySize)
	dial := func() {
		conn, err := f.Dial(bg, hostA, hostB, 80)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, got); err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	// sync.Pool keeps a free list per P and empties them at a collection: a
	// goroutine migration or a GC mid-loop would charge a refill to this
	// test.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Drain whatever earlier tests left: a smaller grown buffer at the head
	// of the pool would be offered, and refused, on every dial.
	for grownBufPool.Get() != nil {
	}
	dial() // warm-up: allocates the window and the grown buffer once
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		dial()
	}
	runtime.ReadMemStats(&after)
	if sha256.Sum256(got) != want {
		t.Fatal("body delivered through a recycled grown ring differs")
	}
	if perDial := (after.TotalAlloc - before.TotalAlloc) / 100; perDial >= 1<<10 {
		t.Fatalf("a dial writing %d KB allocated %d bytes after warm-up; want under 1 KB", bodySize>>10, perDial)
	}
}

// TestGrowFromWrappedRing: growth must linearise a ring whose unread bytes
// wrap around the end of its storage.
func TestGrowFromWrappedRing(t *testing.T) {
	const window = 1 << 10
	c := newConn(window, nil, true)
	rd, wr := &c.s[0], &c.s[1]
	defer rd.Close()
	defer wr.Close()
	data := patterned(800 + 5000)
	if _, err := wr.Write(data[:800]); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := io.ReadFull(rd, got[:500]); err != nil {
		t.Fatal(err)
	}
	if wr.out().start == 0 {
		t.Fatal("ring did not advance; the test would not cover a wrapped grow")
	}
	// 300 bytes unread at offset 500: this write fills the window across the
	// wrap and then grows with start != 0.
	if _, err := wr.Write(data[800:]); err != nil {
		t.Fatal(err)
	}
	if wr.out().window <= window {
		t.Fatalf("ring window %d did not grow past %d", wr.out().window, window)
	}
	if _, err := io.ReadFull(rd, got[500:]); err != nil {
		t.Fatal(err)
	}
	if sha256.Sum256(got) != sha256.Sum256(data) {
		t.Fatal("bytes read after a wrapped grow differ from the bytes written")
	}
}

// TestRecycledGrownBufferKeepsDefaultBackPressure: whatever storage a
// default ring is handed after grown ones were recycled, its window is
// still DefaultWindow.
func TestRecycledGrownBufferKeepsDefaultBackPressure(t *testing.T) {
	c := newConn(0, nil, true)
	rd, wr := &c.s[0], &c.s[1]
	if _, err := wr.Write(make([]byte, 4*DefaultWindow)); err != nil {
		t.Fatal(err)
	}
	rd.Close()
	wr.Close() // both ends closed: the grown storage goes back to its pool

	a, b := Pipe(0)
	defer a.Close()
	defer b.Close()
	n, err := a.TryWrite(make([]byte, 4*DefaultWindow))
	if n != DefaultWindow || !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("TryWrite on a fresh default ring = (%d, %v), want (%d, ErrWouldBlock)", n, err, DefaultWindow)
	}
}

// TestTakeBufPutsBackTooSmall: a pooled buffer that does not fit the ring
// asking goes back to the pool for one it does fit, instead of being
// dropped.
func TestTakeBufPutsBackTooSmall(t *testing.T) {
	skipIfPoolLossy(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P, one free list
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Drain whatever earlier tests left, so the buffer below is the pool's
	// only one.
	for grownBufPool.Get() != nil {
	}
	small := make([]byte, 2*DefaultWindow)
	recycleBuf(small, new([]byte))
	big, _ := takeBuf(4 * DefaultWindow)
	if len(big) != 4*DefaultWindow || &big[0] == &small[0] {
		t.Fatalf("takeBuf(%d) = %d bytes, aliasing the too-small pooled buffer: %v",
			4*DefaultWindow, len(big), &big[0] == &small[0])
	}
	again, _ := takeBuf(2 * DefaultWindow)
	if &again[0] != &small[0] {
		t.Fatal("the too-small buffer was dropped instead of put back")
	}
}

// TestGrowthIsBounded: an inline handler that writes without end gets an
// error once its ring would pass maxGrownWindow, and its dialer reads what
// was accepted followed by a clean EOF.
func TestGrowthIsBounded(t *testing.T) {
	for _, tc := range []struct {
		name   string
		chunk  int
		writes int
	}{
		{"one 32 MB write", 32 << 20, 1},
		{"32 writes of 1 MB", 1 << 20, 32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := NewFabric()
			var accepted int
			var werr error
			f.HandleTCP(hostB, 80, func(conn net.Conn) {
				defer conn.Close()
				chunk := make([]byte, tc.chunk)
				for i := 0; i < tc.writes && werr == nil; i++ {
					var n int
					n, werr = conn.Write(chunk)
					accepted += n
				}
			})
			conn, err := f.Dial(bg, hostA, hostB, 80)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			// The handler runs inline inside this Copy's first Read, so
			// accepted and werr are settled by the time it returns.
			got, err := io.Copy(io.Discard, conn)
			if err != nil {
				t.Fatalf("dialer read failed instead of ending in EOF: %v", err)
			}
			if !errors.Is(werr, errWindowOverflow) {
				t.Fatalf("handler's write error = %v, want errWindowOverflow", werr)
			}
			if got != int64(accepted) || accepted > maxGrownWindow || accepted == 0 {
				t.Fatalf("dialer read %d bytes, handler had %d accepted (bound %d)", got, accepted, maxGrownWindow)
			}
		})
	}
}

// TestClosedDialsDoNotPinPipePairs: a dial whose ends are both closed leaves
// nothing live behind: its pair goes back to the pool, and nothing else
// keeps the dial reachable (a pending timer's callback once did: about
// 0.8 KB a dial, 8 MB over this loop).
func TestClosedDialsDoNotPinPipePairs(t *testing.T) {
	skipIfPoolLossy(t)
	f := NewFabric()
	f.HandleTCP(hostB, 80, func(conn net.Conn) { conn.Close() })
	dial := func() {
		conn, err := f.Dial(bg, hostA, hostB, 80)
		if err != nil {
			t.Fatal(err)
		}
		// Reading runs the queued accept, whose handler closes its end:
		// without it the queue holds every dial and neither end is
		// reclaimed.
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("read after the handler closed: %v, want EOF", err)
		}
		conn.Close()
	}
	heapAlloc := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	dial() // warm-up: the pooled ring storage and the event free list
	before := heapAlloc()
	for i := 0; i < 10_000; i++ {
		dial()
	}
	after := heapAlloc()
	if after > before && after-before >= 1<<20 {
		t.Fatalf("10 000 closed dials left %d KB live; want under 1 MB", (after-before)>>10)
	}
}
