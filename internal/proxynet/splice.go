package proxynet

import (
	"errors"
	"io"
	"net"

	"github.com/tftproject/tft/internal/simnet"
)

// splice is the one tunnel relay: it bridges two streams without parking
// goroutines on blocking reads (a real socket is a stream through
// simnet.AsStream). Each direction is a small state machine driven by the
// streams' readiness callbacks — TryRead into a pooled buffer, TryWrite
// out, stash the remainder when the destination window is full, resume on
// the next notify. A tunnel at rest costs two pooled buffers and no
// goroutines.
//
// Teardown: the first direction to finish (EOF or error) closes both
// connections. The completion callback fires exactly once, with that
// direction's error when it is not benign (nil for an orderly close).
type splice struct {
	k    simnet.Kicker // serialises the streams' notifies into one pump at a time
	dirs [2]spliceDir
	done func(error)
}

// spliceDir is one copy direction of the tunnel.
type spliceDir struct {
	src, dst *simnet.Stream
	// rewrite, when set, transforms each chunk (a TLS interceptor's two
	// legs, a STARTTLS stripper's server→client leg).
	rewrite func([]byte) []byte
	buf     *[]byte // pooled copy buffer
	stash   []byte  // bytes read but not yet written (dst window was full)
}

// startSplice arms a relay between client and server and drives it until
// either side finishes. c2s and s2c, when non-nil, transform the chunks
// of their direction; they run inside kicks, so they must not block. done
// fires exactly once.
//
//tftlint:hotpath
func startSplice(client, server *simnet.Stream, c2s, s2c func([]byte) []byte, done func(error)) {
	s := &splice{done: done}
	//tftlint:ignore poolpair -- tunnel-lifetime buffer: Get here, Put in finish when the splice tears down
	s.dirs[0] = spliceDir{src: client, dst: server, rewrite: c2s, buf: getCopyBuf()}
	//tftlint:ignore poolpair -- tunnel-lifetime buffer: Get here, Put in finish when the splice tears down
	s.dirs[1] = spliceDir{src: server, dst: client, rewrite: s2c, buf: getCopyBuf()}
	kick := s.kick // one method value for both streams: each evaluation is a closure
	client.SetNotify(kick)
	server.SetNotify(kick)
	// Drain anything already buffered (the client may have pipelined data
	// behind its CONNECT before the tunnel was established).
	kick()
}

// kick drains both direction state machines until neither can progress.
// It is the streams' notify callback and may fire from any goroutine: the
// Kicker runs one pump at a time, so only that goroutine touches the
// per-direction state, and pump needs no synchronization of its own.
//
//tftlint:hotpath
func (s *splice) kick() { s.k.Kick(s.pump) }

// pump advances each direction until it blocks, the tunnel finishes, or an
// error surfaces. Only one pump runs at a time (kick serializes), so the
// per-direction state needs no locking of its own.
//
//tftlint:hotpath
func (s *splice) pump() {
	for i := range s.dirs {
		d := &s.dirs[i]
		for {
			if len(d.stash) > 0 {
				n, err := d.dst.TryWrite(d.stash)
				d.stash = d.stash[n:]
				if err == simnet.ErrWouldBlock {
					break
				}
				if err != nil {
					s.finish(err)
					return
				}
				continue
			}
			n, err := d.src.TryRead(*d.buf)
			if n > 0 {
				chunk := (*d.buf)[:n]
				if d.rewrite != nil {
					chunk = d.rewrite(chunk)
				}
				d.stash = chunk
				continue
			}
			if err == simnet.ErrWouldBlock {
				break
			}
			// io.EOF, a close, a reset or a stall: this direction is over.
			s.finish(err)
			return
		}
	}
}

// finish tears the tunnel down: disarm the callbacks, close both ends,
// return the buffers, and report the outcome exactly once.
func (s *splice) finish(err error) {
	s.k.Finish()
	client, server := s.dirs[0].src, s.dirs[1].src
	client.SetNotify(nil)
	server.SetNotify(nil)
	client.Close()
	server.Close()
	putCopyBuf(s.dirs[0].buf)
	putCopyBuf(s.dirs[1].buf)
	s.dirs[0].stash, s.dirs[1].stash = nil, nil
	if benignRelayErr(err) {
		err = nil
	}
	if s.done != nil {
		s.done(err)
	}
}

// benignRelayErr reports whether err is the ordinary end of a tunnel — an
// orderly EOF or the teardown echo of the peer leg closing — rather than a
// failure worth surfacing.
func benignRelayErr(err error) bool {
	return err == nil || errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed)
}
