package simnet

import (
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoFabric serves a one-byte echo on hostB:7, inline on the dialer.
func echoFabric(clock Clock) *Fabric {
	f := NewFabric()
	f.Clock = clock
	f.HandleTCP(hostB, 7, func(c net.Conn) {
		defer c.Close()
		var b [1]byte
		if _, err := io.ReadFull(c, b[:]); err == nil {
			c.Write(b[:])
		}
	})
	return f
}

// echoes reports whether a one-byte round trip through conn works.
func echoes(conn net.Conn, b byte) error {
	if _, err := conn.Write([]byte{b}); err != nil {
		return err
	}
	var got [1]byte
	if _, err := io.ReadFull(conn, got[:]); err != nil {
		return err
	}
	if got[0] != b {
		return errors.New("echo differs")
	}
	return nil
}

// reissue gives a connection its use (closing both ends is use's job, or
// done here) and dials src → hostB:7 until the new connection is built on the
// pair the old one had, so that no test below can pass without a reuse. It
// returns the closed connection's ends and the live dialer end. sync.Pool
// may lose a pair (a collection, a goroutine migration, one Put in four under
// the race detector): such a try is given up and started over.
func reissue(t *testing.T, f *Fabric, use func(local, remote *Stream)) (staleLocal, staleRemote, live *Stream) {
	t.Helper()
	for try := 0; try < 200; try++ {
		old := newConn(DefaultWindow, f.clock(), &f.tasks, true)
		old.ends[0], old.ends[1] = endpoint{ip: hostC}, endpoint{ip: hostB, port: 9}
		old.s[0].dialed, old.s[1].dialed = true, true
		if use != nil {
			use(&old.s[0], &old.s[1])
		}
		old.s[0].Close()
		old.s[1].Close()
		conn, err := f.Dial(bg, hostA, hostB, 7)
		if err != nil {
			t.Fatal(err)
		}
		if live = conn.(*Stream); live.c.pair == old.pair {
			if live.c.gen <= old.gen {
				t.Fatalf("pair reissued in generation %d after generation %d", live.c.gen, old.gen)
			}
			return &old.s[0], &old.s[1], live
		}
		conn.Close() // the handler closes its end when it runs, or never got one
	}
	t.Fatal("no dial was handed the pair the closed connection gave back")
	return nil, nil, nil
}

// TestStaleStreamIsInert: an end held past both Closes, after its pair has
// been issued to another connection, is a closed stream — io.ErrClosedPipe
// or nothing to do — and the connection living in the pair never notices.
func TestStaleStreamIsInert(t *testing.T) {
	f := echoFabric(nil)
	staleA, staleB, live := reissue(t, f, nil)

	buf := make([]byte, 8)
	for _, s := range []*Stream{staleA, staleB} {
		if n, err := s.Read(buf); n != 0 || !errors.Is(err, io.ErrClosedPipe) {
			t.Errorf("stale Read = %d, %v", n, err)
		}
		if n, err := s.Write([]byte("stale")); n != 0 || !errors.Is(err, io.ErrClosedPipe) {
			t.Errorf("stale Write = %d, %v", n, err)
		}
		if n, err := s.Write(nil); n != 0 || !errors.Is(err, io.ErrClosedPipe) {
			t.Errorf("stale empty Write = %d, %v", n, err)
		}
		if n, err := s.TryRead(buf); n != 0 || !errors.Is(err, io.ErrClosedPipe) {
			t.Errorf("stale TryRead = %d, %v", n, err)
		}
		if n, err := s.TryWrite([]byte("stale")); n != 0 || !errors.Is(err, io.ErrClosedPipe) {
			t.Errorf("stale TryWrite = %d, %v", n, err)
		}
		s.SetNotify(func() { t.Error("a stale end's notify fired") })
		s.SetDeadline(time.Now().Add(-time.Hour))
		s.SetReadDeadline(time.Now().Add(-time.Hour))
		s.SetWriteDeadline(time.Now().Add(-time.Hour))
		s.InjectReset()
		s.InjectStall(0)
		s.InjectTruncate(0)
		s.InjectTrickle(1)
		s.InjectCorrupt(1)
		s.CloseWrite()
		s.Close()
	}
	if got := staleA.LocalAddr().String(); got != "10.0.0.3:0" {
		t.Errorf("stale end's own address = %s", got)
	}
	if got := staleA.RemoteAddr().String(); got != "10.0.0.2:9" {
		t.Errorf("stale end's peer address = %s", got)
	}

	if err := echoes(live, 0x5a); err != nil {
		t.Fatalf("the live connection, after every operation through the stale ends: %v", err)
	}
	if got := live.LocalAddr().String(); got != "10.0.0.1:0" {
		t.Errorf("live LocalAddr = %s", got)
	}
	if got := live.RemoteAddr().String(); got != "10.0.0.2:7" {
		t.Errorf("live RemoteAddr = %s", got)
	}
	live.Close()
}

// TestReusedConnStartsClean: whatever the last connection left on the pair —
// a reset, a ring grown past its window, a pending shared segment, an armed
// deadline on the virtual clock, a notify callback — the next one starts
// with none of it, and the old deadline's instant passing does not time it
// out.
func TestReusedConnStartsClean(t *testing.T) {
	clock := NewVirtual(t0)
	f := echoFabric(clock)
	var notified atomic.Int32
	_, _, live := reissue(t, f, func(local, remote *Stream) {
		if _, err := remote.Write(make([]byte, 3*DefaultWindow)); err != nil {
			t.Fatal(err)
		}
		if got := remote.out().window; got <= DefaultWindow {
			t.Fatalf("the old connection's ring did not grow: window %d", got)
		}
		if _, err := local.WriteShared(make([]byte, 8)); err != nil || local.out().seg == nil {
			t.Fatalf("the old connection queued no shared segment: %v", err)
		}
		local.SetDeadline(clock.Now().Add(time.Minute))
		remote.SetDeadline(clock.Now().Add(time.Minute))
		local.SetNotify(func() { notified.Add(1) })
		remote.SetNotify(func() { notified.Add(1) })
		local.InjectReset()
		local.InjectTrickle(1)
	})
	defer live.Close()
	notified.Store(0)

	for i := range live.c.pair.r {
		r := &live.c.pair.r[i]
		r.mu.Lock()
		if r.fault != nil || r.notify[0] != nil || r.notify[1] != nil || r.buf != nil || r.n != 0 || r.seg != nil || r.window != DefaultWindow ||
			r.rdead.timed || r.wdead.timed || r.rdead.timer != (Timer{}) || r.wdead.timer != (Timer{}) ||
			r.wclosed || r.rclosed || r.grow != (i == 1) {
			t.Errorf("ring %d of a reused pair is not clean: %+v", i, r)
		}
		r.mu.Unlock()
	}
	if got := clock.Pending(); got != 0 {
		t.Fatalf("%d deadline timer(s) of the closed connection still pending", got)
	}
	// Full back-pressure on the dialer's side: the last connection's grown
	// window is not this one's.
	if n, err := live.TryWrite(make([]byte, 2*DefaultWindow)); n != DefaultWindow || !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("TryWrite on a reused default ring = (%d, %v), want (%d, ErrWouldBlock)", n, err, DefaultWindow)
	}
	clock.Advance(2 * time.Minute)
	var got [1]byte
	if _, err := io.ReadFull(live, got[:]); err != nil { // runs the echo handler
		t.Fatalf("read on the reused connection after the old deadline passed: %v", err)
	}
	if n := notified.Load(); n != 0 {
		t.Fatalf("the closed connection's notify fired %d times for the new one", n)
	}
}

// TestStaleDeadlineTimerIsNeutered: a deadline timer whose Stop lost the race
// with its firing calls back after its connection has been reclaimed and the
// pair reissued, and times out nobody.
func TestStaleDeadlineTimerIsNeutered(t *testing.T) {
	clock := NewVirtual(t0)
	f := echoFabric(clock)
	var stale *deadline
	var armed uint64
	_, _, live := reissue(t, f, func(local, _ *Stream) {
		local.SetReadDeadline(clock.Now().Add(time.Hour))
		stale = &local.in().rdead
		armed = stale.gen
	})
	defer live.Close()
	stale.fire(armed)
	if err := echoes(live, 1); err != nil {
		t.Fatalf("live connection after a stale deadline fired: %v", err)
	}
	live.SetReadDeadline(clock.Now().Add(-time.Second))
	if _, err := live.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("the live connection's own deadline: %v", err)
	}
}

// TestBlockedReaderAcrossReuse (run with -race): a reader is parked on one
// end while the peer closes and then its own end does, so the pair can be
// reclaimed and issued to one of two goroutines dialing and closing beside
// it before the reader has woken. It must see the end of its own connection,
// never a byte of theirs.
func TestBlockedReaderAcrossReuse(t *testing.T) {
	f := echoFabric(nil)
	stop := make(chan struct{})
	var dialers sync.WaitGroup
	for w := 0; w < 2; w++ {
		dialers.Add(1)
		go func() {
			defer dialers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				conn, err := f.Dial(bg, hostA, hostB, 7)
				if err != nil {
					t.Error(err)
					return
				}
				if err := echoes(conn, 0xee); err != nil {
					t.Errorf("dialer's echo: %v", err)
				}
				conn.Close()
			}
		}()
	}
	for i := 0; i < 300; i++ {
		c := newConn(DefaultWindow, Real{}, nil, false)
		a, b := &c.s[0], &c.s[1]
		parked := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			var buf [4]byte
			close(parked)
			for {
				n, err := a.Read(buf[:])
				if n != 0 {
					t.Errorf("reader of a connection nobody wrote to got %x", buf[:n])
				}
				if err != nil {
					if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) {
						t.Errorf("reader woke to %v", err)
					}
					if errors.Is(err, io.ErrClosedPipe) {
						return
					}
				}
			}
		}()
		<-parked
		runtime.Gosched()
		b.Close()
		a.Close()
		<-done
	}
	close(stop)
	dialers.Wait()
}

// TestDialRoundTripAllocs holds a warmed dial — Fabric.Dial, a one-byte echo
// through an inline handler, both Closes — to what it allocates now that the
// pair is recycled and the accept is queued by value: the conn and the
// handler's one-byte buffer.
func TestDialRoundTripAllocs(t *testing.T) {
	skipIfPoolLossy(t)
	f := echoFabric(NewVirtual(t0))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P, one pool
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	one := []byte{1}
	var buf [1]byte
	dial := func() {
		conn, err := f.Dial(bg, hostA, hostB, 7)
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(one)
		if _, err := io.ReadFull(conn, buf[:]); err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	dial() // warm-up: the pair, its ring storage, the run queue
	const ceiling = 2
	if got := testing.AllocsPerRun(200, dial); got > ceiling {
		t.Errorf("a warmed dial round trip allocates %.0f times, ceiling %d", got, ceiling)
	}
}
