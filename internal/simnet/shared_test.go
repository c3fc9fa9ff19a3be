package simnet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
)

// TestSharedSegmentCrossesByReference: bytes written with WriteShared cross
// as the writer's own slice. A Read stops at the end of the copied bytes
// ahead of them, TakeShared then hands the segment over whole, and the ring
// neither grows nor fills for it.
func TestSharedSegmentCrossesByReference(t *testing.T) {
	a, b := Pipe(0)
	body := patterned(258 << 10)
	if _, err := a.Write([]byte("head")); err != nil {
		t.Fatal(err)
	}
	if n, err := a.WriteShared(body); n != len(body) || err != nil {
		t.Fatalf("WriteShared = (%d, %v), want (%d, nil)", n, err, len(body))
	}
	if r := a.out(); r.window != DefaultWindow || r.n != 4 {
		t.Fatalf("the segment went into the ring: window %d, %d bytes buffered", r.window, r.n)
	}
	buf := make([]byte, 4096)
	if n, err := b.Read(buf); n != 4 || err != nil || string(buf[:n]) != "head" {
		t.Fatalf("first Read = %q, %v; want the copied bytes alone", buf[:n], err)
	}
	got := b.TakeShared(len(body))
	if len(got) != len(body) || cap(got) != len(body) || &got[0] != &body[0] {
		t.Fatalf("TakeShared handed over %d bytes (cap %d), not the writer's slice", len(got), cap(got))
	}
	a.CloseWrite()
	if n, err := b.Read(buf); n != 0 || err != io.EOF {
		t.Fatalf("after the segment: (%d, %v), want EOF", n, err)
	}
}

// TestTakeSharedRefusesAndConsumesNothing: TakeShared returns nil, leaving
// every byte for the next read, whenever the n bytes are not all segment or
// a fault is armed.
func TestTakeSharedRefusesAndConsumesNothing(t *testing.T) {
	body := patterned(8 << 10)
	for _, tc := range []struct {
		name  string
		setup func(a, b *Stream)
		n     int
	}{
		{"copied bytes first", func(a, b *Stream) { a.Write([]byte("x")); a.WriteShared(body) }, len(body)},
		{"longer than the segment", func(a, b *Stream) { a.WriteShared(body) }, len(body) + 1},
		{"nothing asked", func(a, b *Stream) { a.WriteShared(body) }, 0},
		{"fault armed after the write", func(a, b *Stream) { a.WriteShared(body); b.InjectTrickle(7) }, len(body)},
		{"fault armed before the write", func(a, b *Stream) { b.InjectTrickle(7); a.WriteShared(body) }, len(body)},
	} {
		a, b := Pipe(0)
		tc.setup(a, b)
		want := a.out().n + len(a.out().seg)
		if got := b.TakeShared(tc.n); got != nil {
			t.Errorf("%s: TakeShared(%d) handed over %d bytes, want nil", tc.name, tc.n, len(got))
		}
		a.CloseWrite()
		if all, err := io.ReadAll(b); err != nil || len(all) != want {
			t.Errorf("%s: %d bytes read after the refusal (%v), want %d", tc.name, len(all), err, want)
		}
	}
}

// TestWriteBehindSegmentWaits: on a ring that does not grow, a write queued
// behind a pending segment waits for the reader to drain it — TryWrite
// reports ErrWouldBlock meanwhile — and its bytes arrive after the
// segment's.
func TestWriteBehindSegmentWaits(t *testing.T) {
	a, b := Pipe(0)
	body := patterned(8 << 10)
	a.WriteShared(body)
	if n, err := a.TryWrite([]byte("tail")); n != 0 || !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("TryWrite behind a segment = (%d, %v), want (0, ErrWouldBlock)", n, err)
	}
	done := goWrite(a, []byte("tail"))
	got := make([]byte, len(body)+4)
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(body)], body) || string(got[len(body):]) != "tail" {
		t.Fatal("the bytes arrived out of order")
	}
}

// TestInlineWriteFoldsSegment: an inline handler's side cannot wait for its
// dialer, so a write behind a pending segment copies the segment into the
// ring first, growing it, and returns at once.
func TestInlineWriteFoldsSegment(t *testing.T) {
	c := newConn(0, Real{}, nil, true)
	dialer, handler := &c.s[0], &c.s[1]
	body := patterned(100 << 10)
	want := bytes.Clone(body)
	handler.WriteShared(body)
	if _, err := handler.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	if r := handler.out(); r.seg != nil || r.n != len(body)+4 || r.window <= DefaultWindow {
		t.Fatalf("after the write: segment pending %v, %d bytes in a %d-byte ring", r.seg != nil, r.n, r.window)
	}
	handler.Close()
	got, err := io.ReadAll(dialer)
	if err != nil || !bytes.Equal(got, append(want, "tail"...)) || !bytes.Equal(body, want) {
		t.Fatalf("read %d bytes (%v); want the segment then the tail, the source unchanged", len(got), err)
	}
}

// TestFaultsCopySharedBytes: a fault on the direction applies to the
// reader's copy, never to the writer's slice — armed before WriteShared
// (which then copies) or after (the reader copies out of the segment).
func TestFaultsCopySharedBytes(t *testing.T) {
	for _, before := range []bool{true, false} {
		a, b := Pipe(0)
		body := patterned(8 << 10)
		want := bytes.Clone(body)
		if before {
			b.InjectCorrupt(3)
		}
		a.WriteShared(body)
		if !before {
			b.InjectCorrupt(3)
		}
		a.CloseWrite()
		got, err := io.ReadAll(b)
		if err != nil || len(got) != len(body) {
			t.Fatalf("fault armed before=%v: %d bytes, %v", before, len(got), err)
		}
		if got[2] != want[2]^corruptMask || got[0] != want[0] || !bytes.Equal(body, want) {
			t.Fatalf("fault armed before=%v: the corruption missed the reader's copy or hit the source", before)
		}
	}
}

// wouldPark reports whether a blocking read on s would park: every check
// read makes before it does, in read's terms.
func wouldPark(s *Stream) bool {
	r := s.in()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gen == s.c.gen && !r.rclosed && r.fault.readFaultErr() == nil && !r.rdead.timed &&
		r.n == 0 && r.seg == nil && !r.wclosed
}

// errParked stands for the park a blocking read would have made.
var errParked = errors.New("a blocking read would park")

// readUpTo reads up to size bytes from s, call after call, until it has
// them or a call fails: the bytes and error a reader sees over a span of
// the stream, whatever chunks each call returned.
func readUpTo(s *Stream, size int, block bool) ([]byte, error) {
	got := make([]byte, 0, size)
	for len(got) < size {
		if block && wouldPark(s) {
			return got, errParked
		}
		read := s.TryRead
		if block {
			read = s.Read
		}
		n, err := read(got[len(got):size])
		got = got[:len(got)+n]
		if err != nil {
			return got, err
		}
	}
	return got, nil
}

// FuzzSharedAgreesWithCopy holds a direction carrying shared segments to the
// same direction with every write copied: a script of copied and shared
// writes, CloseWrite, Read and TryRead of any size, TakeShared, and any of
// the five faults at any step. The writer's side grows, as an inline
// handler's does, so no write in the script parks. At every step the reader
// sees the same bytes, errors and EOF on both, and so does the writer; the
// bytes TakeShared hands over are the ones a read takes on the copied side;
// and no shared source slice has changed by the end.
func FuzzSharedAgreesWithCopy(f *testing.F) {
	f.Add([]byte{0, 1, 200, 4, 10, 5, 255, 3, 255, 2, 0, 3, 255})
	f.Add([]byte{9, 0, 20, 1, 250, 0, 30, 5, 20, 3, 255, 4, 255})
	f.Add([]byte{3, 1, 100, 10, 3, 1, 100, 8, 20, 4, 255, 2, 0, 3, 255})
	f.Add([]byte{5, 1, 255, 9, 50, 3, 40, 1, 255, 6, 0, 3, 255})
	f.Add([]byte{7, 1, 180, 7, 130, 3, 255, 0, 10, 1, 5, 4, 1, 2, 0, 4, 255})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		window := 8 + int(script[0]%56)
		script = script[1:]
		sc, cc := newConn(window, Real{}, nil, true), newConn(window, Real{}, nil, true)
		sw, sr := &sc.s[1], &sc.s[0] // the shared side: writer grows
		cw, cr := &cc.s[1], &cc.s[0] // every write copied
		var sources, saved [][]byte
		for step := 0; step+1 < len(script); step += 2 {
			op, arg := script[step]%11, script[step+1]
			payload := func() []byte {
				p := make([]byte, arg)
				for i := range p {
					p[i] = byte(step*31 + i)
				}
				return p
			}
			var what string
			var sn, cn int
			var sb, cb []byte
			var serr, cerr error
			switch op {
			case 0:
				what = "Write"
				p := payload()
				sn, serr = sw.Write(p)
				cn, cerr = cw.Write(p)
			case 1:
				what = "WriteShared"
				p := payload()
				sources, saved = append(sources, p), append(saved, bytes.Clone(p))
				sn, serr = sw.WriteShared(p)
				cn, cerr = cw.Write(p)
			case 2:
				what = "CloseWrite"
				sw.CloseWrite()
				cw.CloseWrite()
			case 3, 4:
				block := op == 3
				what = fmt.Sprintf("read(%d, block %v)", arg, block)
				sb, serr = readUpTo(sr, int(arg), block)
				cb, cerr = readUpTo(cr, int(arg), block)
			case 5:
				what = fmt.Sprintf("TakeShared(%d)", arg)
				if sb = sr.TakeShared(int(arg)); sb != nil {
					if !inSources(sb, sources) {
						t.Fatalf("step %d: TakeShared handed over bytes no WriteShared queued", step)
					}
					cb, cerr = readUpTo(cr, int(arg), false)
				}
			case 6:
				what = "InjectReset"
				sr.InjectReset()
				cr.InjectReset()
			case 7:
				what = "InjectStall"
				sr.InjectStall(int64(arg))
				cr.InjectStall(int64(arg))
			case 8:
				what = "InjectTrickle"
				sr.InjectTrickle(1 + int(arg%16))
				cr.InjectTrickle(1 + int(arg%16))
			case 9:
				what = "InjectTruncate"
				sr.InjectTruncate(int64(arg))
				cr.InjectTruncate(int64(arg))
			case 10:
				what = "InjectCorrupt"
				sr.InjectCorrupt(1 + int64(arg%64))
				cr.InjectCorrupt(1 + int64(arg%64))
			}
			if sn != cn || !bytes.Equal(sb, cb) || serr != cerr {
				t.Fatalf("step %d, %s: shared side (%d, %q, %v), copied side (%d, %q, %v)",
					step, what, sn, sb, serr, cn, cb, cerr)
			}
		}
		// What is left on the stream, up to the end, is the same too.
		sw.CloseWrite()
		cw.CloseWrite()
		rest := 255*len(script)/2 + 1 // more than the script can write
		sb, serr := readUpTo(sr, rest, true)
		cb, cerr := readUpTo(cr, rest, true)
		if !bytes.Equal(sb, cb) || serr != cerr {
			t.Fatalf("the rest of the stream: shared side %d bytes, %v; copied side %d bytes, %v", len(sb), serr, len(cb), cerr)
		}
		for i := range sources {
			if !bytes.Equal(sources[i], saved[i]) {
				t.Fatalf("shared source %d changed", i)
			}
		}
	})
}

// inSources reports whether b lies inside one of the slices in sources.
func inSources(b []byte, sources [][]byte) bool {
	for _, s := range sources {
		if len(s) >= len(b) && len(b) > 0 {
			for i := 0; i+len(b) <= len(s); i++ {
				if &s[i] == &b[0] {
					return true
				}
			}
		}
	}
	return false
}
