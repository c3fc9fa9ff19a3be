// Package readiness arms a readiness handler the way the world's sites do:
// the notify is a method value held in a local, and it drains through a
// Kicker embedded in the handler's state. Both callbacks block, and both
// must diagnose: the local resolves to the method it holds, and Kick is a
// registration root by the receiver of the method called, whatever type
// the expression it is called on has.
package readiness

// Stream mimics the fabric stream's readiness API surface.
type Stream struct {
	notify func()
	data   chan byte
}

// SetNotify arms the readiness callback — a noblock registration root.
func (s *Stream) SetNotify(fn func()) { s.notify = fn }

// Read blocks until a byte arrives.
func (s *Stream) Read(p []byte) (int, error) {
	p[0] = <-s.data
	return 1, nil
}

// Kicker mimics simnet.Kicker: Kick runs drain inline, on whichever
// goroutine fired the notify.
type Kicker struct{ kicks int }

// Kick runs drain unless a drain is running.
func (k *Kicker) Kick(drain func()) {
	if k.kicks++; k.kicks == 1 {
		drain()
	}
	k.kicks--
}

// drainer is a handler's connection and the Kicker that serialises its
// drains.
type drainer struct {
	Kicker
	conn *Stream
}

// site answers on its stream's readiness callbacks.
type site struct {
	drainer
	answered chan struct{}
}

// Serve arms the site's notify through a local method value.
func Serve(s *Stream, answered chan struct{}) {
	st := &site{drainer: drainer{conn: s}, answered: answered}
	kick := st.kick
	s.SetNotify(kick)
}

// kick is the notify: it blocks itself, then drains through the promoted
// Kick.
func (st *site) kick() {
	st.answered <- struct{}{} // channel send, reached through the local
	st.Kick(st.drain)
}

// drain reads with the blocking API.
func (st *site) drain() {
	var buf [1]byte
	st.conn.Read(buf[:]) // blocking Stream.Read, reached through Kick
}
