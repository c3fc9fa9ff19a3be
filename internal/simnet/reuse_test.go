package simnet

import (
	"errors"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
)

// echoFabric serves a one-byte echo on hostB:7, inline on the dialer.
func echoFabric() *Fabric {
	f := NewFabric()
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
		old := newConn(DefaultWindow, &f.tasks, true)
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
	f := echoFabric()
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
// a reset, a ring grown past its window, a pending shared segment, a notify
// callback — the next one starts with none of it.
func TestReusedConnStartsClean(t *testing.T) {
	f := echoFabric()
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
			r.wclosed || r.rclosed || r.grow != (i == 1) {
			t.Errorf("ring %d of a reused pair is not clean: %+v", i, r)
		}
		r.mu.Unlock()
	}
	// Full back-pressure on the dialer's side: the last connection's grown
	// window is not this one's.
	if n, err := live.TryWrite(make([]byte, 2*DefaultWindow)); n != DefaultWindow || !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("TryWrite on a reused default ring = (%d, %v), want (%d, ErrWouldBlock)", n, err, DefaultWindow)
	}
	var got [1]byte
	if _, err := io.ReadFull(live, got[:]); err != nil { // runs the echo handler
		t.Fatalf("read on the reused connection: %v", err)
	}
	if n := notified.Load(); n != 0 {
		t.Fatalf("the closed connection's notify fired %d times for the new one", n)
	}
}

// TestBlockedReaderAcrossReuse (run with -race): a reader is parked on one
// end while the peer closes and then its own end does, so the pair can be
// reclaimed and issued to one of two goroutines dialing and closing beside
// it before the reader has woken. It must see the end of its own connection,
// never a byte of theirs.
func TestBlockedReaderAcrossReuse(t *testing.T) {
	f := echoFabric()
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
		c := newConn(DefaultWindow, nil, false)
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
	f := echoFabric()
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

// drainPairs empties pairPool and reports how many times it held pp. It
// counts one processor's pool: callers run at GOMAXPROCS 1 with the
// collector off, as TestDialRoundTripAllocs does.
func drainPairs(pp *pair) int {
	n := 0
	for {
		p, _ := pairPool.Get().(*pair)
		if p == nil {
			return n
		}
		if p == pp {
			n++
		}
	}
}

// staleIsInert fails t unless s, an end whose connection has ended, meets a
// closed stream.
func staleIsInert(t *testing.T, s *Stream) {
	t.Helper()
	var buf [4]byte
	if n, err := s.Read(buf[:]); n != 0 || !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("stale Read = %d, %v", n, err)
	}
	if n, err := s.Write([]byte("stale")); n != 0 || !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("stale Write = %d, %v", n, err)
	}
	s.SetNotify(func() { t.Error("a stale end's notify fired") })
	s.InjectReset()
	s.CloseWrite()
	s.Close()
}

// echoOnce fails t unless a byte written on one end of c arrives at the other.
func echoOnce(t *testing.T, c *conn) {
	t.Helper()
	var got [1]byte
	if _, err := c.s[0].Write([]byte{0x7e}); err != nil {
		t.Fatalf("write on the live connection: %v", err)
	}
	if _, err := io.ReadFull(&c.s[1], got[:]); err != nil || got[0] != 0x7e {
		t.Fatalf("read on the live connection = %x, %v", got, err)
	}
}

// TestPairReturnsOnceBothEndsClose: in every order the two ends can close
// in, the pair goes back to the pool at the step that gives the second end
// its Close and at no other, exactly once, so two later dials never share
// it; the ends kept from before stay inert and cannot end the connection the
// pair serves next.
func TestPairReturnsOnceBothEndsClose(t *testing.T) {
	const a, b, closeWrite = 0, 1, true
	type step struct {
		end        int
		closeWrite bool
	}
	orders := []struct {
		name  string
		steps []step
	}{
		{"a then b", []step{{a, false}, {b, false}}},
		{"b then a", []step{{b, false}, {a, false}}},
		{"a CloseWrite, a, b", []step{{a, closeWrite}, {a, false}, {b, false}}},
		{"a CloseWrite, b, a", []step{{a, closeWrite}, {b, false}, {a, false}}},
		{"b CloseWrite, b, a", []step{{b, closeWrite}, {b, false}, {a, false}}},
		{"b CloseWrite, a, b", []step{{b, closeWrite}, {a, false}, {b, false}}},
		{"a twice, b", []step{{a, false}, {a, false}, {b, false}}},
		{"a, b, a again", []step{{a, false}, {b, false}, {a, false}}},
		{"b CloseWrite twice, a, b", []step{{b, closeWrite}, {b, closeWrite}, {a, false}, {b, false}}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P, one pool
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, o := range orders {
		t.Run(o.name, func(t *testing.T) {
			drainPairs(nil)
			old := newConn(DefaultWindow, nil, false)
			pp := old.pair
			closed := [2]bool{}
			for i, st := range o.steps {
				end := &old.s[st.end]
				if st.closeWrite {
					end.CloseWrite()
				} else {
					end.Close()
				}
				last := !closed[st.end] && !st.closeWrite && closed[1-st.end]
				closed[st.end] = closed[st.end] || !st.closeWrite
				if !last {
					if n := drainPairs(pp); n != 0 {
						t.Fatalf("step %d: the pair is in the pool %d times before both ends closed", i, n)
					}
					continue
				}
				// Two dials: the first takes the pair back (but under the race
				// detector, whose pool drops a Put in four), the second must
				// find it taken.
				live, other := newConn(DefaultWindow, nil, false), newConn(DefaultWindow, nil, false)
				if live.pair != pp && !raceEnabled {
					t.Fatalf("step %d: both ends closed and the pair did not come back", i)
				}
				if other.pair == live.pair || other.pair == pp {
					t.Fatalf("step %d: two dials share a pair: it came back more than once", i)
				}
				if n := drainPairs(pp); n != 0 {
					t.Fatalf("step %d: the pair is in the pool %d more times after two dials", i, n)
				}
				// The old ends may not reach the connection the pair serves now.
				staleIsInert(t, &old.s[a])
				staleIsInert(t, &old.s[b])
				echoOnce(t, live)
				live.s[0].Close()
				if n := drainPairs(live.pair); n != 0 {
					t.Fatalf("the stale ends' closes count toward the next connection: its pair came back after one Close")
				}
				live.s[1].Close()
				if n := drainPairs(live.pair); n != 1 && !raceEnabled {
					t.Fatalf("the next connection's pair came back %d times after both Closes", n)
				}
				other.s[0].Close()
				other.s[1].Close()
			}
		})
	}
}

// TestConcurrentClosesReturnThePairOnce (run with -race): both ends close at
// once, from two goroutines, so that each may retire one ring and leave the
// pair to the other's count. Both rings must end retired once, two later
// dials never share a pair, and the old ends stay inert.
func TestConcurrentClosesReturnThePairOnce(t *testing.T) {
	for i := 0; i < 500; i++ {
		c := newConn(DefaultWindow, nil, false)
		pp, gen := c.pair, c.gen
		start := make(chan struct{})
		var wg sync.WaitGroup
		for side := range c.s {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				c.s[side].Close()
			}()
		}
		close(start)
		wg.Wait()
		for j := range pp.r {
			r := &pp.r[j]
			r.mu.Lock()
			g, wc, rc := r.gen, r.wclosed, r.rclosed
			r.mu.Unlock()
			if g != gen+1 || wc || rc {
				t.Fatalf("ring %d after both Closes: generation %d (from %d), closed flags %v %v", j, g, gen, wc, rc)
			}
		}
		x, y := newConn(DefaultWindow, nil, false), newConn(DefaultWindow, nil, false)
		if x.pair == y.pair {
			t.Fatal("two dials share a pair: it came back more than once")
		}
		staleIsInert(t, &c.s[0])
		staleIsInert(t, &c.s[1])
		echoOnce(t, x)
		echoOnce(t, y)
		for _, l := range []*conn{x, y} {
			l.s[0].Close()
			l.s[1].Close()
		}
	}
}
