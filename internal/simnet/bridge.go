package simnet

import (
	"errors"
	"io"
	"net"
)

// AsStream returns c in the one form every readiness consumer takes — the
// proxy tunnel's splice, the world's TLS sites and its mail server — so a
// real socket is served by the same handler as a fabric stream.
//
// A *Stream is returned unchanged. Any other connection is bridged: AsStream
// returns the near end of a fresh Pipe, and two goroutines copy between the
// pipe's far end and c, one each way, for c's lifetime. What happens on c
// reaches the stream as it would on a fabric stream: c's EOF as a CloseWrite
// (the stream reads io.EOF once it has drained), any other read or write
// error on c as an InjectReset (every operation on the stream fails with
// ErrInjectedReset, a transport fault). Closing the stream closes c once the
// bytes written to it are out. The bridge has no half-close to pass on: a
// CloseWrite on the stream closes c too, after which the stream's reads
// fail as reset. The pipe's rings go back to the pool once the consumer has
// closed the stream and c's EOF has closed the far end; a pipe that was
// reset is left to the collector instead.
//
// peer is the connection the consumer pairs the stream with (a tunnel's other
// leg), or nil. When it is a fabric stream, the pipe's blocked operations
// drain that fabric's run queue as the fabric's own streams do. A splice never
// blocks, so without this nothing would run an accept its dial queued: the
// server-talks-first origin behind a socket client's tunnel would never greet.
func AsStream(c, peer net.Conn) *Stream {
	if s, ok := c.(*Stream); ok {
		return s
	}
	var q *taskQueue
	if p, ok := peer.(*Stream); ok {
		// Under the lock, as the close that retires the ring clears it. A
		// peer past its connection's end would read the queue of whatever
		// the pair serves now; no caller passes one.
		r := p.in()
		r.mu.Lock()
		q = r.pump
		r.mu.Unlock()
	}
	pc := newConn(DefaultWindow, q, false)
	near, far := &pc.s[0], &pc.s[1]
	//tftlint:ignore nogo -- socket bridge: a real socket's reads block in the OS, so one goroutine per bridged socket carries them into the pipe
	go func() {
		buf := make([]byte, 32<<10)
		for {
			n, err := c.Read(buf)
			if _, werr := far.Write(buf[:n]); werr != nil {
				return // the stream closed, or was reset
			}
			if errors.Is(err, io.EOF) {
				far.CloseWrite()
				return
			} else if err != nil {
				// Once the stream has closed (and so c), this meets a
				// stream no consumer reads: the reset changes nothing.
				far.InjectReset()
				return
			}
		}
	}()
	//tftlint:ignore nogo -- socket bridge: a real socket's writes block in the OS, so one goroutine per bridged socket carries the pipe's bytes out
	go func() {
		buf := make([]byte, 32<<10)
		var err error
		for err == nil {
			var n int
			if n, err = far.Read(buf); n > 0 {
				if _, werr := c.Write(buf[:n]); werr != nil {
					far.InjectReset()
					err = werr
				}
			}
		}
		c.Close()
		// Closing far after a reset could let the consumer's next write meet
		// the close before the reset; a reset pipe is left to the collector.
		if err == io.EOF {
			far.Close()
		}
	}()
	return near
}
