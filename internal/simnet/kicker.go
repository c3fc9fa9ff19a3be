package simnet

import "sync/atomic"

// Kicker serialises the drains of one readiness consumer: a SetNotify
// callback that relays or answers on its streams without a goroutine (a
// tunnel's splice, a site behind one). A notify may fire from any
// goroutine, and re-enter from inside the drain's own TryRead, TryWrite
// and Close. Callbacks run inside the fabric's run-to-completion
// scheduler, where taking a mutex could park the event loop, so a Kicker
// collapses concurrent notifies into one drain with a counter and never
// blocks. The zero Kicker is ready.
type Kicker struct {
	kicks atomic.Int32 // notifies not yet drained
	done  atomic.Bool  // set by Finish: no drain runs again
}

// Kick is a consumer's notify: only the kick that raises the count from
// zero runs drain, and it drains again for as long as kicks arrived during
// its drain, so none is lost and no two drains overlap. Once Finish has
// been called, the next drain to start returns without counting down, so
// every later Kick returns at once: a finished consumer's callback need
// not be disarmed.
//
//tftlint:hotpath
func (k *Kicker) Kick(drain func()) {
	if k.kicks.Add(1) != 1 {
		return
	}
	for n := int32(1); !k.done.Load(); {
		drain()
		if n = k.kicks.Add(-n); n == 0 {
			return
		}
	}
}

// Finish ends the consumer; called from a drain, that drain is the last.
func (k *Kicker) Finish() { k.done.Store(true) }

// Finished reports whether Finish has been called.
func (k *Kicker) Finished() bool { return k.done.Load() }
