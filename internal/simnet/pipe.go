package simnet

import (
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// DefaultWindow is the per-direction buffer window of a fabric stream. It
// holds every request and every small response the measurement stack emits,
// so a writer streams those without blocking on the reader. It does not hold
// every response: the §5.1 JavaScript object alone is 258 KB. A canonical
// object crosses as a shared segment (Stream.WriteShared), which takes no
// window space; any other write past the window parks the writer, or grows an
// inline handler's side (see growBuf).
const DefaultWindow = 64 << 10

// ErrWouldBlock is returned by TryRead and TryWrite when the operation
// cannot make progress right now: the readiness error of the non-blocking
// stream API. Callers arm SetNotify and retry when the callback fires.
var ErrWouldBlock = errors.New("simnet: operation would block")

// ErrInjectedReset is the failure an InjectReset leaves on both directions
// of a stream: the simulation analogue of a TCP RST. Fault-aware callers
// (the proxy path, the experiment drivers) classify it as a transport
// fault, never as a middlebox outcome.
var ErrInjectedReset = errors.New("simnet: connection reset by injected fault")

// ringBufPool recycles DefaultWindow-sized ring storage between connections.
// A crawl opens millions of short-lived streams; with the pool, the
// steady-state buffer count is the handful of connections actually in
// flight. grownBufPool does the same for everything larger: the storage
// growBuf widened a ring to, and the windows of a bare Pipe wider than the
// default. Keeping the two apart means a grown buffer is never handed out as
// a 64KB window while the next large response allocates another one beside
// it.
var ringBufPool, grownBufPool sync.Pool

// maxGrownWindow caps growBuf: twice httpwire.MaxBodyBytes, so any response
// the HTTP stack accepts fits with its headers, and a handler that writes
// without end fails instead of taking the process's memory with it.
const maxGrownWindow = 16 << 20

// errWindowOverflow is what Write returns to an inline handler that has
// out-written maxGrownWindow.
var errWindowOverflow = errors.New("simnet: inline handler out-wrote the largest ring window")

// takeBuf returns n bytes of ring storage and its pool box: recycled when
// the matching pool has a buffer that large, fresh otherwise. The box
// travels with the buffer through every later Put/Get so returning it to
// the pool never allocates.
func takeBuf(n int) ([]byte, *[]byte) {
	pool := &ringBufPool
	if n > DefaultWindow {
		pool = &grownBufPool
	}
	if p, _ := pool.Get().(*[]byte); p != nil {
		if cap(*p) >= n {
			return (*p)[:n], p
		}
		pool.Put(p) // too small for this ring; another will fit it
	}
	return make([]byte, n), new([]byte)
}

// recycleBuf returns ring storage to the pool its size belongs to. Storage
// below DefaultWindow (the tiny windows tests use) is left to the GC, so
// every pooled buffer serves a default ring at least.
func recycleBuf(buf []byte, box *[]byte) {
	if cap(buf) < DefaultWindow {
		return
	}
	*box = buf[:0]
	if cap(buf) > DefaultWindow {
		grownBufPool.Put(box)
	} else {
		ringBufPool.Put(box)
	}
}

// pairPool recycles the heavy half of a connection — both rings, with their
// locks and conds — between dials, as ringBufPool does their storage: a
// crawl dials two or three times a session and closes every connection
// before the next session starts.
var pairPool sync.Pool

// Pipe returns a connected pair of buffered in-memory stream ends, the
// fabric's fast-path replacement for net.Pipe. Each direction is an
// independent ring buffer of at most window bytes (DefaultWindow when
// window <= 0), so writes complete without a reader rendezvous until the
// window fills — the property that removes two goroutine wakeups per Write
// from every hop of the simulated proxy chain.
//
// Semantics match net.Pipe where both define behaviour: reads and writes
// after a local Close return io.ErrClosedPipe, writes to an end whose
// peer has closed return io.ErrClosedPipe. Where net.Pipe cannot buffer,
// Pipe behaves like TCP: data written before a close is still delivered,
// and the peer sees io.EOF only after draining it. CloseWrite half-closes
// like a TCP FIN.
//
// A stream takes no deadline, as net.Pipe took none before Go 1.10: the
// Set*Deadline methods refuse any time but the zero one with
// os.ErrNoDeadline. A simulated world's time is a virtual clock that no
// crawl advances mid-session, so no wait on a fabric stream could be cut
// by one; a stall fault fails a read at once (see ringFault), and a caller
// that must not hang on a bare Pipe closes it (a Close wakes a parked Read
// with io.ErrClosedPipe).
func Pipe(window int) (*Stream, *Stream) {
	c := newConn(window, nil, false)
	return &c.s[0], &c.s[1]
}

// pair is the recycled half of a connection: both direction rings. Once both
// ends are fully closed it returns its ring storage to the buffer pools and
// itself to pairPool, to be issued to a later dial in a later generation.
type pair struct {
	r [2]ring // r[0]: a→b, r[1]: b→a
}

// conn is the half of a connection a dial allocates and nothing recycles:
// the two Stream ends, their addresses, and the generation the pair was
// issued to them in. Every ring operation carries that generation and the
// ring compares it under its lock, so an end held past both Closes finds a
// closed stream (io.ErrClosedPipe, or nothing to do), never the connection
// the pair serves now. The addresses stay here for the same reason: a
// net.Addr handed out by LocalAddr is the caller's for good.
type conn struct {
	pair *pair
	gen  uint64
	ends [2]endpoint // fabric endpoint addresses (zero on a bare Pipe)
	s    [2]Stream
}

// newConn builds a connection whose blocked operations drain pump (when
// non-nil) before parking. grow lets the second end out-write the window
// (see Fabric.Dial).
//
//tftlint:hotpath
func newConn(window int, pump *taskQueue, grow bool) *conn {
	if window <= 0 {
		window = DefaultWindow
	}
	pp := takePair()
	c := &conn{pair: pp}
	for i := range pp.r {
		r := &pp.r[i]
		// Under the lock: an end from the pair's last generation may be
		// calling in.
		r.mu.Lock()
		r.window, r.pump, r.grow = window, pump, grow && i == 1
		r.wclosed, r.rclosed = false, false
		c.gen = r.gen // the same in both rings: maybeReclaim bumps them together
		r.mu.Unlock()
	}
	c.s[0] = Stream{c: c, side: 0}
	c.s[1] = Stream{c: c, side: 1}
	return c
}

// takePair returns a pair no connection holds: recycled, in the state
// maybeReclaim left it in, or fresh.
func takePair() *pair {
	if pp, _ := pairPool.Get().(*pair); pp != nil {
		return pp
	}
	pp := &pair{}
	for i := range pp.r {
		r := &pp.r[i]
		r.cond.L = &r.mu
	}
	return pp
}

// recyclePair hands a reclaimed pair to the next dial.
func recyclePair(pp *pair) { pairPool.Put(pp) }

// maybeReclaim ends generation gen once both ends are fully closed: the
// ring storage goes back to the buffer pools and the pair to pairPool. Any
// operation still in flight observes a closed flag, or the new generation,
// under the ring lock before it could touch the buffer, so reclaiming here is
// safe. Generations only count up, so a stale end that still names the old
// one stays inert however often the pair is reissued.
func (pp *pair) maybeReclaim(gen uint64) {
	for i := range pp.r {
		r := &pp.r[i]
		r.mu.Lock()
		closed := r.gen == gen && r.wclosed && r.rclosed
		r.mu.Unlock()
		if !closed {
			return
		}
	}
	for i := range pp.r {
		r := &pp.r[i]
		r.mu.Lock()
		if r.gen != gen {
			// Both ends' Close got here; the other one is reclaiming.
			r.mu.Unlock()
			return
		}
		r.gen++
		buf, bufp := r.buf, r.bufp
		r.buf, r.bufp = nil, nil
		r.n, r.start = 0, 0
		r.seg = nil
		r.notify, r.fault, r.pump = [2]func(){}, nil, nil
		r.mu.Unlock()
		recycleBuf(buf, bufp)
	}
	recyclePair(pp)
}

// pipeAddr is the placeholder endpoint address, as with net.Pipe.
type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// ring is one direction of a Stream: a bounded ring buffer with a single
// mutex/cond pair coordinating the (usually one) reader and writer, plus
// the close and fault state for that direction.
//
// version counts state transitions; a blocked operation snapshots it before
// releasing the lock to run a queued fabric task, and re-checks instead of
// parking if the ring changed underneath — the lost-wakeup guard of the
// run-to-completion scheduler.
//
// gen is the generation of the connection the ring serves (see conn). Every
// entry point takes the caller's and, on a mismatch, does what it does on a
// closed ring; blocking ones compare again each time they wake.
type ring struct {
	mu   sync.Mutex
	cond sync.Cond
	gen  uint64

	buf    []byte  // ring storage; nil until first write, pooled full-window
	bufp   *[]byte // pool box for buf, non-nil whenever buf is (see takeBuf)
	start  int     // index of the first unread byte
	n      int     // unread byte count
	window int     // buffer capacity

	// seg is the read-only segment queued behind the n ring bytes (see
	// Stream.WriteShared): the writer's own slice, never written through,
	// taking no window space. nil when none is pending.
	seg []byte

	wclosed bool // write side closed: reads drain then EOF, writes fail
	rclosed bool // read side closed: writes fail immediately

	pump    *taskQueue // fabric run queue drained while blocked (may be nil)
	grow    bool       // widen past the window instead of blocking writes
	version uint64     // state-transition counter
	notify  [2]func()  // readiness callbacks, one per stream end (see Stream.SetNotify)

	fault *ringFault // injected-fault state; nil on healthy rings
}

// ringFault is the injected-fault state of one ring direction (see the
// Stream.Inject* methods). A nil pointer is the healthy fast path: the
// data paths pay one pointer check. Fields are guarded by the ring mutex.
//
// Stalls and truncations are byte-count triggered and collapse to their
// client-visible outcome (os.ErrDeadlineExceeded, io.EOF) the moment the
// threshold is crossed, instead of parking the reader until a timer: the
// crawl worlds never advance the virtual clock mid-run, so a parked stall
// would deadlock the run-to-completion core, while the collapsed error is
// byte-for-byte what a real client with a deadline would observe.
type ringFault struct {
	failErr      error // reset: every read and write fails with this
	stallAfter   int64 // -1 disabled; reads past this fail like a deadline
	truncAfter   int64 // -1 disabled; reads past this see a clean io.EOF
	corruptEvery int64 // >0: every Nth delivered byte is XORed
	trickle      int   // >0: per-read byte cap
	delivered    int64 // bytes handed to the reader so far
}

// corruptMask is the XOR pattern FaultCorrupt applies — enough to break
// any header token or payload byte it lands on without zeroing it.
const corruptMask = 0x55

// capRead bounds a read's destination to what the fault state lets
// through. Caller holds the ring mutex and has already returned the
// stall/truncate error when the threshold was reached, so the remaining
// allowance is at least one byte.
func (f *ringFault) capRead(p []byte) []byte {
	max := len(p)
	if f.trickle > 0 && max > f.trickle {
		max = f.trickle
	}
	if f.stallAfter >= 0 {
		if rem := f.stallAfter - f.delivered; int64(max) > rem {
			max = int(rem)
		}
	}
	if f.truncAfter >= 0 {
		if rem := f.truncAfter - f.delivered; int64(max) > rem {
			max = int(rem)
		}
	}
	return p[:max]
}

// deliver accounts bytes handed to the reader, corrupting the stride's
// positions in place. Caller holds the ring mutex.
func (f *ringFault) deliver(p []byte) {
	if f.corruptEvery > 0 {
		for i := range p {
			if (f.delivered+int64(i))%f.corruptEvery == f.corruptEvery-1 {
				p[i] ^= corruptMask
			}
		}
	}
	f.delivered += int64(len(p))
}

// readFaultErr returns the error a read must surface before touching the
// buffer, or nil. Caller holds the ring mutex. Reset discards buffered
// data (as a RST does); stall and truncation fire once the delivered byte
// count reaches their threshold, even with more data buffered — the rest
// "never arrived".
func (f *ringFault) readFaultErr() error {
	switch {
	case f == nil:
		return nil
	case f.failErr != nil:
		return f.failErr
	case f.stallAfter >= 0 && f.delivered >= f.stallAfter:
		return os.ErrDeadlineExceeded
	case f.truncAfter >= 0 && f.delivered >= f.truncAfter:
		return io.EOF
	}
	return nil
}

// injectFault mutates the ring's fault state through the standard
// state-transition path — version bump, broadcast, readiness notify — so
// parked readers, pumping handlers, and TryRead/TryWrite splices observe
// the fault like any other stream event.
func (r *ring) injectFault(gen uint64, mutate func(*ringFault)) {
	r.mu.Lock()
	if r.gen != gen {
		r.mu.Unlock()
		return
	}
	if r.fault == nil {
		r.fault = &ringFault{stallAfter: -1, truncAfter: -1}
	}
	//tftlint:ignore lockorder -- every mutate closure (Stream.Inject*) only assigns ringFault fields; none can lock
	mutate(r.fault)
	r.changed()
}

// ensureBuf allocates the ring storage on first use: a pooled full-window
// buffer when one fits, a fresh one otherwise. Allocating the whole window
// up front means the ring never copies to grow, and the buffer recycles
// through the pools across connections.
func (r *ring) ensureBuf() {
	r.buf, r.bufp = takeBuf(r.window)
	r.start = 0
}

// growBuf widens the ring past its window — the escape hatch for handlers
// running inline on the event core, whose dialer sits beneath them on the
// stack and cannot drain the response until they finish. Blocking here
// would deadlock; growing trades memory, bounded by maxGrownWindow, for
// progress on exactly the rings that need it (see Fabric.Dial). Only copied
// bytes need it: a shared segment takes no window space, so a canonical
// object never grows a ring, and growBuf serves copied writes (and fold)
// alone. It reports false, leaving the ring as it was, when holding need more
// bytes would pass that bound. Caller holds r.mu; buf is allocated unless
// the ring is empty.
func (r *ring) growBuf(need int) bool {
	if need > maxGrownWindow-r.n {
		return false
	}
	newCap := r.window * 2
	for newCap < r.n+need {
		newCap *= 2
	}
	if newCap > maxGrownWindow {
		newCap = maxGrownWindow
	}
	nb, nbp := takeBuf(newCap)
	first := len(r.buf) - r.start
	if first > r.n {
		first = r.n
	}
	copy(nb, r.buf[r.start:r.start+first])
	copy(nb[first:], r.buf[:r.n-first])
	recycleBuf(r.buf, r.bufp)
	r.buf, r.bufp = nb, nbp
	r.start = 0
	r.window = newCap
	return true
}

// pumpOrWait is the blocked path shared by read and write: run one queued
// fabric task if there is one, otherwise park on the cond. Caller holds
// r.mu in the same wait loop and re-checks ring state after return.
//
// Parking subscribes the ring to the run queue first: a task pushed after
// this goroutine parks (a Dial from some other goroutine, possibly the very
// handler this ring is waiting on) must wake somebody, or it strands in the
// queue while every free goroutine sleeps. The pending() re-check under
// r.mu closes the race with a push that fired between subscribing and
// parking — push broadcasts while holding r.mu, so it either finds us in
// Wait or we see its task pending here and return to pump it.
func (r *ring) pumpOrWait() {
	if pump := r.pump; pump != nil {
		v := r.version
		r.mu.Unlock()
		if pump.runOne() {
			r.mu.Lock()
			return
		}
		subscribed := pump.subscribe(&r.cond)
		r.mu.Lock()
		if !subscribed || r.version != v || pump.pending() {
			return
		}
	}
	r.cond.Wait()
}

// copyOut moves buffered bytes into p. Caller holds r.mu and guarantees
// r.n > 0.
func (r *ring) copyOut(p []byte) int {
	total := 0
	for total < len(p) && r.n > 0 {
		chunk := len(r.buf) - r.start // contiguous run from start
		if chunk > r.n {
			chunk = r.n
		}
		k := copy(p[total:], r.buf[r.start:r.start+chunk])
		r.start = (r.start + k) % len(r.buf)
		r.n -= k
		total += k
	}
	return total
}

// advanceSeg consumes k bytes of the pending segment, dropping it once it
// is drained. Caller holds r.mu.
func (r *ring) advanceSeg(k int) {
	if r.seg = r.seg[k:]; len(r.seg) == 0 {
		r.seg = nil
	}
}

// fold copies the pending segment into the ring, growing it as far as need
// be: what an inline handler's Write does rather than wait behind a segment
// its dialer cannot take until the handler returns. It reports false,
// leaving the ring as it was, when that would pass maxGrownWindow. Caller
// holds r.mu.
func (r *ring) fold() bool {
	if len(r.seg) > r.window-r.n && !r.growBuf(len(r.seg)) {
		return false
	}
	r.copyIn(r.seg)
	r.seg = nil
	return true
}

// copyIn appends up to window-n bytes of p into the ring. Caller holds r.mu.
func (r *ring) copyIn(p []byte) int {
	free := r.window - r.n
	want := len(p)
	if want > free {
		want = free
	}
	if want > 0 && r.buf == nil {
		r.ensureBuf()
	}
	total := 0
	for want > 0 {
		end := (r.start + r.n) % len(r.buf)
		chunk := len(r.buf) - end
		if chunk > want {
			chunk = want
		}
		copy(r.buf[end:end+chunk], p[total:total+chunk])
		r.n += chunk
		total += chunk
		want -= chunk
	}
	return total
}

// changed ends a state transition: it bumps version, wakes every parked
// operation, releases r.mu and runs the readiness callbacks outside it —
// the dialing end's first — the order SetNotify promises. Caller holds r.mu.
func (r *ring) changed() {
	r.version++
	r.cond.Broadcast()
	fns := r.notify
	r.mu.Unlock()
	for _, fn := range fns {
		if fn != nil {
			fn()
		}
	}
}

// read copies buffered bytes out for the Stream whose in-direction this ring
// is: ring bytes while there are any, then the pending segment's — never
// both in one call, so a reader that stops at the end of the ring bytes
// finds the segment whole for TakeShared. An empty, open ring parks the
// caller when block is set (Read) and reports ErrWouldBlock when it is not
// (TryRead); every other outcome is the same for both.
func (r *ring) read(gen uint64, p []byte, block bool) (int, error) {
	r.mu.Lock()
	for {
		if r.gen != gen || r.rclosed {
			r.mu.Unlock()
			return 0, io.ErrClosedPipe
		}
		if err := r.fault.readFaultErr(); err != nil {
			r.mu.Unlock()
			return 0, err
		}
		if r.n > 0 || r.seg != nil {
			break
		}
		if r.wclosed {
			r.mu.Unlock()
			return 0, io.EOF
		}
		if !block {
			r.mu.Unlock()
			return 0, ErrWouldBlock
		}
		if len(p) == 0 {
			r.mu.Unlock()
			return 0, nil
		}
		r.pumpOrWait()
	}
	dst := p
	if r.fault != nil {
		dst = r.fault.capRead(p)
	}
	var total int
	if r.n > 0 {
		total = r.copyOut(dst)
	} else {
		total = copy(dst, r.seg)
		r.advanceSeg(total)
	}
	if r.fault != nil {
		r.fault.deliver(dst[:total])
	}
	r.changed()
	return total, nil
}

// takeShared hands over the next n bytes by reference: see
// Stream.TakeShared.
func (r *ring) takeShared(gen uint64, n int) []byte {
	r.mu.Lock()
	if r.gen != gen || r.rclosed || r.fault != nil || r.n > 0 || n <= 0 || len(r.seg) < n {
		r.mu.Unlock()
		return nil
	}
	p := r.seg[:n:n]
	r.advanceSeg(n)
	r.changed()
	return p
}

// write copies p into the Stream's out-direction ring and returns the count
// written before any error. Write (block set) and TryWrite part only where
// the ring cannot take the bytes: at a full window Write grows an inline
// handler's side (see growBuf) or parks; behind a pending segment Write
// folds the segment into an inline handler's side (see fold) or parks until
// the reader has drained it. TryWrite returns the short count with
// ErrWouldBlock in both places and grows nothing. Every other outcome is the
// same for both, an empty p included: it meets the close or reset a longer
// write would, or returns (0, nil). With shared set (WriteShared,
// always blocking), p is queued as the segment instead of copied when no
// segment is pending and no fault is armed; otherwise it is copied as Write
// copies.
func (r *ring) write(gen uint64, p []byte, block, shared bool) (int, error) {
	total := 0
	r.mu.Lock()
	shared = shared && r.seg == nil && r.fault == nil
	for {
		if r.gen != gen || r.wclosed || r.rclosed {
			r.mu.Unlock()
			return total, io.ErrClosedPipe
		}
		if r.fault != nil && r.fault.failErr != nil {
			err := r.fault.failErr
			r.mu.Unlock()
			return total, err
		}
		if len(p) == 0 {
			r.mu.Unlock()
			return 0, nil
		}
		if shared {
			r.seg = p[:len(p):len(p)]
			r.changed()
			return len(p), nil
		}
		if r.seg != nil {
			switch {
			case !block:
				r.mu.Unlock()
				return total, ErrWouldBlock
			case !r.grow:
				r.pumpOrWait()
				continue
			case !r.fold():
				r.mu.Unlock()
				return total, errWindowOverflow
			}
		}
		if r.n >= r.window {
			switch {
			case !block:
				r.mu.Unlock()
				return total, ErrWouldBlock
			case !r.grow:
				r.pumpOrWait()
				continue
			case !r.growBuf(len(p) - total):
				r.mu.Unlock()
				return total, errWindowOverflow
			}
		}
		total += r.copyIn(p[total:])
		r.changed()
		if total == len(p) {
			return total, nil
		}
		if !block {
			return total, ErrWouldBlock
		}
		r.mu.Lock()
	}
}

// closeWrite marks the direction's write side closed: the reader drains
// whatever is buffered and then sees io.EOF.
func (r *ring) closeWrite(gen uint64) {
	r.mu.Lock()
	if r.gen != gen {
		r.mu.Unlock()
		return
	}
	r.wclosed = true
	r.changed()
}

// closeRead marks the direction's read side closed: pending and future
// writes fail with io.ErrClosedPipe, local reads too.
func (r *ring) closeRead(gen uint64) {
	r.mu.Lock()
	if r.gen != gen {
		r.mu.Unlock()
		return
	}
	r.rclosed = true
	r.changed()
}

// setNotify arms (or clears) the readiness callback of the ring's end side.
func (r *ring) setNotify(gen uint64, side uint8, fn func()) {
	r.mu.Lock()
	if r.gen == gen {
		r.notify[side] = fn
	}
	r.mu.Unlock()
}

// Stream is one end of a connection: a buffered fabric pipe. It implements
// net.Conn plus the CloseWrite half-close that TCP-like streams offer, and a
// non-blocking readiness API (TryRead, TryWrite, SetNotify) for event-driven
// consumers like the proxy tunnel splice.
type Stream struct {
	c      *conn
	side   uint8 // 0: the dialing end
	dialed bool  // through a fabric: the ends have addresses
}

var _ net.Conn = (*Stream)(nil)

// in is the peer → us direction, out the us → peer one.
func (s *Stream) in() *ring  { return &s.c.pair.r[1-s.side] }
func (s *Stream) out() *ring { return &s.c.pair.r[s.side] }

// Read implements net.Conn.
func (s *Stream) Read(p []byte) (int, error) { return s.in().read(s.c.gen, p, true) }

// Write implements net.Conn.
func (s *Stream) Write(p []byte) (int, error) { return s.out().write(s.c.gen, p, true, false) }

// WriteShared is Write for bytes nobody ever stores into. While no fault is
// armed on the direction and no earlier segment is pending, it queues p
// itself, by reference, behind the bytes already buffered: a read-only
// segment that takes no window space, so it neither parks the writer nor
// grows the ring. Otherwise it behaves as Write. The reader copies out of
// the segment as it would out of the ring (faults included: they apply to
// the reader's copy, never to p), or takes it by reference with TakeShared.
// p must never change afterwards: a reader may hold it past both Closes.
func (s *Stream) WriteShared(p []byte) (int, error) {
	return s.out().write(s.c.gen, p, true, true)
}

// TakeShared returns the next n bytes of the receive direction by reference
// — a slice of what a WriteShared queued, capacity clipped to n — when all n
// are segment bytes, no fault is armed and nothing else stands in the way of
// a read (a close). Otherwise it returns nil and consumes
// nothing, and the caller reads the bytes as usual. The bytes are read-only.
func (s *Stream) TakeShared(n int) []byte { return s.in().takeShared(s.c.gen, n) }

// TryRead is the non-blocking Read: it returns whatever is buffered, or
// (0, ErrWouldBlock) when nothing is and the peer still writes. io.EOF and
// close errors surface exactly as with Read.
func (s *Stream) TryRead(p []byte) (int, error) { return s.in().read(s.c.gen, p, false) }

// TryWrite is the non-blocking Write: it buffers what fits in the window
// and returns the count written, with ErrWouldBlock when p did not fit
// entirely. Nothing fits behind a pending shared segment.
func (s *Stream) TryWrite(p []byte) (int, error) { return s.out().write(s.c.gen, p, false, false) }

// SetNotify arms fn as the stream's readiness callback: it fires, without
// any lock held, after every state transition on either direction — data
// arriving or draining, a side closing, a fault armed. Callbacks must
// be brief, must tolerate spurious invocations, and at most one consumer
// per stream end may arm one. Each end holds its own slot, so the two ends
// of one connection arm, fire and disarm apart: a site answering on its
// end and a splice relaying from the other do not overwrite each other. A
// nil fn disarms.
func (s *Stream) SetNotify(fn func()) {
	s.in().setNotify(s.c.gen, s.side, fn)
	s.out().setNotify(s.c.gen, s.side, fn)
}

// Close implements net.Conn: the peer drains any buffered data and then
// reads io.EOF; its writes — and every further local operation — fail with
// io.ErrClosedPipe.
func (s *Stream) Close() error {
	s.out().closeWrite(s.c.gen)
	s.in().closeRead(s.c.gen)
	s.c.pair.maybeReclaim(s.c.gen)
	return nil
}

// CloseWrite half-closes the stream: the peer sees io.EOF after draining,
// while reads on this end keep working — a TCP FIN.
func (s *Stream) CloseWrite() error {
	s.out().closeWrite(s.c.gen)
	return nil
}

// LocalAddr implements net.Conn.
func (s *Stream) LocalAddr() net.Addr { return s.addr(s.side) }

// RemoteAddr implements net.Conn.
func (s *Stream) RemoteAddr() net.Addr { return s.addr(1 - s.side) }

// addr is the address of one end of the connection: the placeholder on a
// bare Pipe.
func (s *Stream) addr(side uint8) net.Addr {
	if !s.dialed {
		return pipeAddr{}
	}
	return &s.c.ends[side]
}

// SetDeadline implements net.Conn: a stream takes no deadline (see Pipe).
// It returns os.ErrNoDeadline for any t but the zero time, and changes
// nothing either way.
func (s *Stream) SetDeadline(t time.Time) error {
	if t.IsZero() {
		return nil
	}
	return os.ErrNoDeadline
}

// SetReadDeadline implements net.Conn as SetDeadline does.
func (s *Stream) SetReadDeadline(t time.Time) error { return s.SetDeadline(t) }

// SetWriteDeadline implements net.Conn as SetDeadline does.
func (s *Stream) SetWriteDeadline(t time.Time) error { return s.SetDeadline(t) }

// InjectReset kills both directions of the stream: every further read and
// write — on either end, buffered data included — fails with
// ErrInjectedReset, as after a TCP RST.
func (s *Stream) InjectReset() {
	s.in().injectFault(s.c.gen, func(f *ringFault) { f.failErr = ErrInjectedReset })
	s.out().injectFault(s.c.gen, func(f *ringFault) { f.failErr = ErrInjectedReset })
}

// InjectStall lets this end read after more bytes of its receive
// direction and then fail with os.ErrDeadlineExceeded — a peer that went
// silent until the reader's patience ran out. The peer's writes are
// unaffected.
func (s *Stream) InjectStall(after int64) {
	s.in().injectFault(s.c.gen, func(f *ringFault) { f.stallAfter = after })
}

// InjectTruncate delivers after more bytes of this end's receive
// direction and then reports a clean io.EOF — a response cut short.
func (s *Stream) InjectTruncate(after int64) {
	s.in().injectFault(s.c.gen, func(f *ringFault) { f.truncAfter = after })
}

// InjectTrickle caps every read on this end's receive direction at chunk
// bytes — a slow link releasing bytes a few at a time.
func (s *Stream) InjectTrickle(chunk int) {
	s.in().injectFault(s.c.gen, func(f *ringFault) { f.trickle = chunk })
}

// InjectCorrupt XORs every every-th byte delivered on this end's receive
// direction — an on-path link mangling payloads.
func (s *Stream) InjectCorrupt(every int64) {
	s.in().injectFault(s.c.gen, func(f *ringFault) { f.corruptEvery = every })
}
