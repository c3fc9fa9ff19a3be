package simnet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/netip"
	"os"
	"sync"
	"testing"
	"time"
)

// TestPipeRoundTrip moves data both ways through one pair.
func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe(0)
	msg := []byte("hello across the fabric")
	if n, err := a.Write(msg); err != nil || n != len(msg) {
		t.Fatalf("Write = %d, %v", n, err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(b, got); err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("Read = %q, %v", got, err)
	}
	if n, err := b.Write([]byte("pong")); err != nil || n != 4 {
		t.Fatalf("reverse Write = %d, %v", n, err)
	}
	got = make([]byte, 4)
	if _, err := io.ReadFull(a, got); err != nil || string(got) != "pong" {
		t.Fatalf("reverse Read = %q, %v", got, err)
	}
}

// TestPipeWriteDoesNotBlockWithinWindow is the point of the fast path: a
// writer must complete without any reader present while under the window.
func TestPipeWriteDoesNotBlockWithinWindow(t *testing.T) {
	a, _ := Pipe(4 << 10)
	done := make(chan error, 1)
	go func() {
		_, err := a.Write(make([]byte, 4<<10))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Write = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("window-sized write blocked with no reader")
	}
}

// TestPipeWriteBlocksBeyondWindow checks backpressure engages at the
// window and releases as the reader drains.
func TestPipeWriteBlocksBeyondWindow(t *testing.T) {
	a, b := Pipe(1 << 10)
	wrote := make(chan int, 1)
	go func() {
		n, _ := a.Write(make([]byte, 3<<10))
		wrote <- n
	}()
	select {
	case <-wrote:
		t.Fatal("3KB write completed against a 1KB window with no reader")
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := io.ReadFull(b, make([]byte, 3<<10)); err != nil {
		t.Fatal(err)
	}
	if n := <-wrote; n != 3<<10 {
		t.Fatalf("writer completed %d of %d", n, 3<<10)
	}
}

// TestWriteAndTryWriteAgree: Write and TryWrite are one write path. On a
// ring closed at either end or reset, and with an empty p or one that fits,
// they return the same count and error. They part only at a full window:
// TryWrite returns the short count with ErrWouldBlock, where Write parks
// (TestPipeWriteBlocksBeyondWindow) or, on an inline handler's side, grows
// the ring; TryWrite grows nothing.
func TestWriteAndTryWriteAgree(t *testing.T) {
	const window = 8
	closeWriter := func(wr, _ *Stream) { wr.Close() }
	closeReader := func(_, rd *Stream) { rd.Close() }
	reset := func(wr, _ *Stream) { wr.InjectReset() }
	for _, tc := range []struct {
		state string
		prep  func(wr, rd *Stream)
		p, n  int
		err   error
	}{
		{"open", nil, 0, 0, nil},
		{"open", nil, 5, 5, nil},
		{"closed", closeWriter, 0, 0, io.ErrClosedPipe},
		{"closed", closeWriter, 5, 0, io.ErrClosedPipe},
		{"peer-closed", closeReader, 0, 0, io.ErrClosedPipe},
		{"peer-closed", closeReader, 5, 0, io.ErrClosedPipe},
		{"reset", reset, 0, 0, ErrInjectedReset},
		{"reset", reset, 5, 0, ErrInjectedReset},
	} {
		for _, op := range []struct {
			name  string
			write func(*Stream, []byte) (int, error)
		}{{"Write", (*Stream).Write}, {"TryWrite", (*Stream).TryWrite}} {
			wr, rd := Pipe(window)
			if tc.prep != nil {
				tc.prep(wr, rd)
			}
			if n, err := op.write(wr, make([]byte, tc.p)); n != tc.n || !errors.Is(err, tc.err) {
				t.Errorf("%s of %d bytes on a %s ring = (%d, %v), want (%d, %v)", op.name, tc.p, tc.state, n, err, tc.n, tc.err)
			}
			wr.Close()
			rd.Close()
		}
	}

	wr, rd := Pipe(window)
	defer rd.Close()
	defer wr.Close()
	for _, want := range []struct {
		n   int
		err error
	}{{5, nil}, {3, ErrWouldBlock}, {0, ErrWouldBlock}} {
		if n, err := wr.TryWrite(make([]byte, 5)); n != want.n || !errors.Is(err, want.err) {
			t.Fatalf("TryWrite of 5 bytes into an %d-byte window = (%d, %v), want (%d, %v)", window, n, err, want.n, want.err)
		}
	}

	c := newConn(window, nil, true)
	grower := &c.s[1]
	defer c.s[0].Close()
	defer grower.Close()
	if n, err := grower.Write(make([]byte, window)); n != window || err != nil {
		t.Fatalf("filling the growing side = (%d, %v)", n, err)
	}
	if n, err := grower.TryWrite(make([]byte, 5)); n != 0 || !errors.Is(err, ErrWouldBlock) || grower.out().window != window {
		t.Fatalf("TryWrite on a full growing side = (%d, %v), window %d; want (0, ErrWouldBlock), window %d", n, err, grower.out().window, window)
	}
	if n, err := grower.Write(make([]byte, 5)); n != 5 || err != nil || grower.out().window <= window {
		t.Fatalf("Write on a full growing side = (%d, %v), window %d; want (5, nil) and a grown window", n, err, grower.out().window)
	}
}

// TestPipeCloseWithPendingData: data buffered before Close must still be
// delivered, then EOF — the TCP-like close the relays depend on.
func TestPipeCloseWithPendingData(t *testing.T) {
	a, b := Pipe(0)
	msg := []byte("flushed before close")
	if _, err := a.Write(msg); err != nil {
		t.Fatal(err)
	}
	a.Close()
	got, err := io.ReadAll(b)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("ReadAll after peer close = %q, %v", got, err)
	}
	if _, err := b.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after drain = %v, want EOF", err)
	}
}

// TestPipeCloseWrite half-closes: the peer drains to EOF while the
// reverse direction stays open.
func TestPipeCloseWrite(t *testing.T) {
	a, b := Pipe(0)
	a.Write([]byte("fin"))
	if err := a.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(b)
	if err != nil || string(got) != "fin" {
		t.Fatalf("drain = %q, %v", got, err)
	}
	// Reverse direction still works.
	if _, err := b.Write([]byte("ack")); err != nil {
		t.Fatalf("reverse write after CloseWrite = %v", err)
	}
	buf := make([]byte, 3)
	if _, err := io.ReadFull(a, buf); err != nil || string(buf) != "ack" {
		t.Fatalf("reverse read = %q, %v", buf, err)
	}
	// Writes on the closed side fail.
	if _, err := a.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("write after CloseWrite = %v, want ErrClosedPipe", err)
	}
}

// TestStreamRefusesDeadlines: a stream takes no deadline. Any time but the
// zero one is refused with os.ErrNoDeadline, on both ends of a dialed stream
// and of a bare Pipe, and the past deadline set last times out no later Read
// or Write.
func TestStreamRefusesDeadlines(t *testing.T) {
	refuses := func(end string, c net.Conn) {
		for _, set := range []struct {
			name string
			fn   func(time.Time) error
		}{{"SetDeadline", c.SetDeadline}, {"SetReadDeadline", c.SetReadDeadline}, {"SetWriteDeadline", c.SetWriteDeadline}} {
			if err := set.fn(time.Time{}); err != nil {
				t.Errorf("%s end: %s(zero time) = %v, want nil", end, set.name, err)
			}
			for _, at := range []time.Time{time.Now().Add(time.Hour), time.Now().Add(-time.Hour)} {
				if err := set.fn(at); !errors.Is(err, os.ErrNoDeadline) {
					t.Errorf("%s end: %s(%v) = %v, want os.ErrNoDeadline", end, set.name, at, err)
				}
			}
		}
	}
	// echo answers four bytes with themselves and closes.
	echo := func(c net.Conn) error {
		defer c.Close()
		var buf [4]byte
		if _, err := io.ReadFull(c, buf[:]); err != nil {
			return err
		}
		_, err := c.Write(buf[:])
		return err
	}

	a, b := Pipe(0)
	defer a.Close()
	refuses("pipe", a)
	refuses("pipe peer", b)
	echoed := make(chan error, 1)
	go func() { echoed <- echo(b) }()
	if _, err := a.Write([]byte("ping")); err != nil {
		t.Fatalf("pipe Write after the refused deadlines: %v", err)
	}
	if got, err := io.ReadAll(a); err != nil || string(got) != "ping" {
		t.Fatalf("pipe Read after the refused deadlines = %q, %v; want the echo, then EOF", got, err)
	}
	if err := <-echoed; err != nil {
		t.Fatalf("pipe peer's echo after the refused deadlines: %v", err)
	}

	f := NewFabric()
	f.HandleTCP(hostB, 7, func(c net.Conn) {
		refuses("accepted", c)
		if err := echo(c); err != nil {
			t.Errorf("accepted end's echo after the refused deadlines: %v", err)
		}
	})
	conn, err := f.Dial(bg, hostA, hostB, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	refuses("dialing", conn)
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatalf("dialed Write after the refused deadlines: %v", err)
	}
	if got, err := io.ReadAll(conn); err != nil || string(got) != "ping" {
		t.Fatalf("dialed Read after the refused deadlines = %q, %v; want the echo, then EOF", got, err)
	}
}

// TestPipeNetPipeParity runs the same semantic probes against both our
// Pipe and net.Pipe and requires identical outcomes everywhere the two
// can agree (net.Pipe cannot buffer, so probes keep a peer goroutine
// pumping the unbuffered side).
func TestPipeNetPipeParity(t *testing.T) {
	type mk func() (net.Conn, net.Conn)
	impls := map[string]mk{
		"simnet": func() (net.Conn, net.Conn) { a, b := Pipe(0); return a, b },
		"net":    func() (net.Conn, net.Conn) { return net.Pipe() },
	}
	for name, make := range impls {
		t.Run(name, func(t *testing.T) {
			// Write after local close fails with ErrClosedPipe.
			a, _ := make()
			a.Close()
			if _, err := a.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
				t.Errorf("write after close = %v, want ErrClosedPipe", err)
			}
			// Read after local close fails with ErrClosedPipe.
			a, _ = make()
			a.Close()
			if _, err := a.Read([]byte{0}); !errors.Is(err, io.ErrClosedPipe) {
				t.Errorf("read after close = %v, want ErrClosedPipe", err)
			}
			// Write to a closed peer fails with ErrClosedPipe.
			a, b := make()
			b.Close()
			if _, err := a.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
				t.Errorf("write to closed peer = %v, want ErrClosedPipe", err)
			}
			// Read from a closed peer (no data) yields EOF.
			a, b = make()
			b.Close()
			if _, err := a.Read([]byte{0}); err != io.EOF {
				t.Errorf("read from closed peer = %v, want EOF", err)
			}
			// Data crosses intact (reader goroutine for net.Pipe's sake).
			a, b = make()
			msg := []byte("parity payload")
			errc := goWrite(a, msg)
			got := goAllN(b, len(msg))
			if werr := <-errc; werr != nil {
				t.Errorf("write = %v", werr)
			}
			if !bytes.Equal(<-got, msg) {
				t.Error("payload corrupted")
			}
		})
	}
}

func goWrite(c net.Conn, p []byte) chan error {
	errc := make(chan error, 1)
	go func() { _, err := c.Write(p); errc <- err }()
	return errc
}

func goAllN(c net.Conn, n int) chan []byte {
	out := make(chan []byte, 1)
	go func() {
		buf := make([]byte, n)
		io.ReadFull(c, buf)
		out <- buf
	}()
	return out
}

// TestPipeConcurrentReadersWriters hammers one pair from multiple
// goroutines on each side under -race: total bytes must balance.
func TestPipeConcurrentReadersWriters(t *testing.T) {
	a, b := Pipe(2 << 10)
	const writers = 4
	const perWriter = 64 << 10
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chunk := make([]byte, 1234)
			sent := 0
			for sent < perWriter {
				n := len(chunk)
				if perWriter-sent < n {
					n = perWriter - sent
				}
				w, err := a.Write(chunk[:n])
				if err != nil {
					t.Errorf("writer: %v", err)
					return
				}
				sent += w
			}
		}()
	}
	var readMu sync.Mutex
	totalRead := 0
	var rg sync.WaitGroup
	for i := 0; i < 3; i++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			buf := make([]byte, 2048)
			for {
				n, err := b.Read(buf)
				readMu.Lock()
				totalRead += n
				readMu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	a.CloseWrite()
	rg.Wait()
	if totalRead != writers*perWriter {
		t.Fatalf("read %d bytes, wrote %d", totalRead, writers*perWriter)
	}
}

// TestPipeConcurrentCloseDuringTransfer closes both ends mid-flight under
// -race; every goroutine must terminate.
func TestPipeConcurrentCloseDuringTransfer(t *testing.T) {
	for i := 0; i < 20; i++ {
		a, b := Pipe(512)
		var wg sync.WaitGroup
		wg.Add(3)
		go func() {
			defer wg.Done()
			buf := make([]byte, 256)
			for {
				if _, err := a.Write(buf); err != nil {
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			buf := make([]byte, 128)
			for {
				if _, err := b.Read(buf); err != nil {
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			time.Sleep(time.Millisecond)
			a.Close()
			b.Close()
		}()
		wg.Wait()
	}
}

// TestFabricDialStreamAddrs: fabric streams must still report the
// endpoint addresses servers log.
func TestFabricDialStreamAddrs(t *testing.T) {
	f := NewFabric()
	srv := netip.MustParseAddr("10.0.0.2")
	cli := netip.MustParseAddr("10.0.0.1")
	accepted := make(chan net.Conn, 1)
	// HandleTCPStream: the handler hands the conn over a channel instead of
	// serving a request, so it cannot run inline on the dialer's event loop.
	f.HandleTCPStream(srv, 80, func(c net.Conn) { accepted <- c })
	conn, err := f.Dial(context.Background(), cli, srv, 80)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rc := <-accepted
	defer rc.Close()
	ip, ok := RemoteIP(rc)
	if !ok || ip != cli {
		t.Fatalf("server sees peer %v, want %v", ip, cli)
	}
	ip, ok = RemoteIP(conn)
	if !ok || ip != srv {
		t.Fatalf("client sees peer %v, want %v", ip, srv)
	}
}

// TestSetNotifyPerEnd: each end of one connection holds its own readiness
// callback. With both armed, every transition on either direction fires
// both — a write, a read that drains, a half-close — and neither arming
// overwrites the other.
func TestSetNotifyPerEnd(t *testing.T) {
	a, b := Pipe(0)
	var fired [2]int
	a.SetNotify(func() { fired[0]++ })
	b.SetNotify(func() { fired[1]++ })
	for _, step := range []struct {
		name string
		do   func()
	}{
		{"a writes", func() { a.Write([]byte("hi")) }},
		{"b drains", func() { b.TryRead(make([]byte, 8)) }},
		{"b writes", func() { b.TryWrite([]byte("yo")) }},
		{"a half-closes", func() { a.CloseWrite() }},
	} {
		before := fired
		step.do()
		if fired[0] == before[0] || fired[1] == before[1] {
			t.Fatalf("%s: a's callback fired %d times, b's %d; want both",
				step.name, fired[0]-before[0], fired[1]-before[1])
		}
	}
}

// TestSetNotifyDisarmIsPerEnd: disarming one end leaves the other end's
// callback armed on both directions.
func TestSetNotifyDisarmIsPerEnd(t *testing.T) {
	a, b := Pipe(0)
	var aFired, bFired int
	a.SetNotify(func() { aFired++ })
	b.SetNotify(func() { bFired++ })
	a.SetNotify(nil)
	a.Write([]byte("to b"))
	b.Write([]byte("to a"))
	if aFired != 0 {
		t.Fatalf("a's disarmed callback fired %d times", aFired)
	}
	if bFired != 2 {
		t.Fatalf("b's callback fired %d times over two writes, one a direction; want 2", bFired)
	}
}
