package origin

import (
	"bytes"

	"github.com/tftproject/tft/internal/simnet"
	"github.com/tftproject/tft/internal/smtpwire"
	"github.com/tftproject/tft/internal/tlssim"
)

// The world's HTTPS sites and its mail server are reached through CONNECT
// tunnels, so their first bytes arrive only after the tunnel's 200 has
// crossed back and the splice is armed: they cannot run to completion on
// whichever goroutine pumps their accept. On a fabric stream they answer on
// its readiness callbacks instead, the way the splice relays: the accept
// drains once, and only when that leaves the handler waiting does it arm
// SetNotify and drain again (a byte that arrived between the two would
// otherwise notify nobody). Every later drain runs from the notify of the
// write that fed the stream, and the answer goes out by TryWrite. A
// connection at rest costs one small struct and no goroutine.

// drainer is a readiness handler's connection and the Kicker that
// serialises its drains. A handler that is done calls finish from its
// drain and leaves its callback armed: the Kicker makes it return at once
// until the connection's pair is reclaimed.
type drainer struct {
	simnet.Kicker
	conn *simnet.Stream
}

// finish closes the connection: the handler is done.
func (d *drainer) finish() {
	d.Finish()
	d.conn.Close()
}

// helloSize is the hello a TLS site gathers without allocating: header,
// length and a server name of up to 58 bytes, twice the world's longest.
// It sets the size of a site's per-connection state, allocated once a
// handshake; a longer hello takes the heap.
const helloSize = 64

// maxHello is the longest first record that can be a hello: a 16-bit
// server name and its length, after the header.
const maxHello = 4 + 2 + 1<<16 - 1

// tlsSite is one handshake answered on readiness callbacks: the client's
// first record gathered by TryRead, tlssim.Answer's record written by
// TryWrite, then the close. It reads and writes what tlssim.ServeOnce does,
// and closes at the same point of the client's bytes: a first record that
// cannot be a hello is still read to its end, and then answered with
// nothing.
type tlsSite struct {
	drainer
	records tlssim.RecordSource
	buf     []byte // the first record so far: hello, or the heap past it
	got     int    // bytes of the first record read
	need    int    // its length, header included; 0 until the header is in
	out     []byte // the answer's unwritten rest
	hello   [helloSize]byte
}

// serveTLS answers one handshake on conn's readiness callbacks.
func serveTLS(conn *simnet.Stream, records tlssim.RecordSource) {
	s := &tlsSite{drainer: drainer{conn: conn}, records: records}
	s.buf = s.hello[:]
	// The hello is usually in by the time the accept runs: the dialer
	// pumps the accept when it blocks for the answer. The callback, a
	// closure, is made only when the handler has to wait.
	if s.drain(); !s.Finished() {
		kick := s.kick
		conn.SetNotify(kick)
		kick()
	}
}

// kick is the stream's notify callback.
//
//tftlint:hotpath
func (s *tlsSite) kick() { s.Kick(s.drain) }

// drain reads the first record until it is whole, then writes the answer
// until it is out, as far as the stream lets it.
//
//tftlint:hotpath
func (s *tlsSite) drain() {
	for s.out == nil {
		if s.need == 0 && s.got >= 4 {
			s.need = 4 + (int(s.buf[1])<<16 | int(s.buf[2])<<8 | int(s.buf[3]))
			if tlssim.RecordType(s.buf[0]) == tlssim.RecordClientHello && s.need <= maxHello && s.need > len(s.buf) {
				// A hello past the array: rare enough to take the heap,
				// bounded by the 16-bit server name.
				s.buf = append(s.buf[:s.got:s.got], make([]byte, s.need-s.got)...)
			}
		}
		if s.need > 0 && s.got >= s.need {
			if s.need > len(s.buf) {
				// Read to its end, as ReadRecord does, and no hello.
				s.finish()
				return
			}
			out, err := tlssim.Answer(tlssim.RecordType(s.buf[0]), s.buf[4:s.need], s.records)
			if err != nil {
				s.finish()
				return
			}
			s.out = out
			break
		}
		// A record no hello can be is read past through the buffer's tail,
		// behind the header.
		p := s.buf[4:]
		if s.got < len(s.buf) {
			p = s.buf[s.got:]
		}
		n, err := s.conn.TryRead(p)
		s.got += n
		if err == simnet.ErrWouldBlock {
			return
		}
		if err != nil {
			s.finish() // EOF before the record's end, a reset, a stall
			return
		}
	}
	for len(s.out) > 0 {
		n, err := s.conn.TryWrite(s.out)
		s.out = s.out[n:]
		if err == simnet.ErrWouldBlock {
			return
		}
		if err != nil {
			break
		}
	}
	s.finish()
}

// mailSession is one SMTP session prefix served on readiness callbacks:
// the greeting written at accept, then each command line's
// smtpwire.Server.Reply in one TryWrite, until QUIT, an error or the
// client's EOF. It reads and writes what smtpwire.Server.ServeOnce does:
// no line is answered before the reply to the one before it is out.
type mailSession struct {
	drainer
	mail    *smtpwire.Server
	out     []byte // a reply's unwritten rest
	quit    bool   // close once out is written
	line    []byte // the command line so far
	pending []byte // read and not yet split into lines: a tail of in
	in      [256]byte
}

// serveMail serves one session prefix on conn's readiness callbacks.
func serveMail(conn *simnet.Stream, mail *smtpwire.Server) {
	s := &mailSession{drainer: drainer{conn: conn}, mail: mail, out: mail.Greeting()}
	if s.drain(); !s.Finished() {
		kick := s.kick
		conn.SetNotify(kick)
		kick()
	}
}

// kick is the stream's notify callback.
func (s *mailSession) kick() { s.Kick(s.drain) }

// drain writes what is owed, then answers every whole line the stream
// holds, as far as the stream lets it.
func (s *mailSession) drain() {
	for {
		if len(s.out) > 0 {
			n, err := s.conn.TryWrite(s.out)
			s.out = s.out[n:]
			if err == simnet.ErrWouldBlock {
				return
			}
			if err != nil {
				s.finish()
				return
			}
			continue
		}
		if s.quit {
			s.finish()
			return
		}
		if len(s.pending) == 0 {
			n, err := s.conn.TryRead(s.in[:])
			if err == simnet.ErrWouldBlock {
				return
			}
			if err != nil {
				s.finish() // EOF, whole line or not, a reset, a stall
				return
			}
			s.pending = s.in[:n]
		}
		i := bytes.IndexByte(s.pending, '\n')
		if i < 0 {
			s.line = append(s.line, s.pending...)
			s.pending = nil
			continue
		}
		s.line = append(s.line, s.pending[:i+1]...)
		s.pending = s.pending[i+1:]
		s.out, s.quit = s.mail.Reply(string(s.line))
		s.line = s.line[:0]
	}
}
