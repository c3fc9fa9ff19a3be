// Package simnet provides the simulation substrate shared by every other
// package in this repository: a pluggable clock (real or virtual), an
// in-memory network fabric with addressable hosts, and deterministic
// random-number plumbing.
//
// The measurement methodology in the paper depends on time only through
// event ordering and recorded delays (session TTLs, monitor refetch delays,
// the 24-hour monitoring window). Running those against a virtual clock lets
// the full experiment complete in milliseconds while preserving every
// observable delay, which is what the analysis consumes.
package simnet

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"
)

// Clock abstracts time for everything in this repository. Two
// implementations exist: Real (the wall clock, used by the cmd/ daemons) and
// Virtual (a discrete-event clock, used by tests, benches, and full-scale
// simulated runs).
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// AfterFunc schedules f to run once the clock has advanced d past Now.
	// f runs on the clock's goroutine for Virtual clocks; callers must not
	// block inside f.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a handle to a pending AfterFunc callback: a value, so that
// handing one out allocates nothing. The zero Timer is no timer at all, and
// stopping it reports false.
type Timer struct {
	real *time.Timer // a Real clock's timer

	// A Virtual clock's: the event, and the generation it was scheduled
	// under. The snapshot keeps a Stop that races (or trails) the event's
	// firing from touching a recycled — possibly re-scheduled — event
	// object.
	clock *Virtual
	ev    *event
	gen   uint64
}

// Stop cancels the callback if it has not fired yet, reporting whether it
// was cancelled.
func (t Timer) Stop() bool {
	switch {
	case t.real != nil:
		return t.real.Stop()
	case t.clock != nil:
		return t.clock.stop(t.ev, t.gen)
	}
	return false
}

// Real is a Clock backed by the wall clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) Timer { return Timer{real: time.AfterFunc(d, f)} }

// Virtual is a discrete-event clock. Time never advances on its own: callers
// advance it explicitly with Advance or Run, and any AfterFunc callbacks due
// in the traversed window fire in timestamp order.
//
// The heap holds only live timers: Stop removes its event at once, so a
// cleared deadline drops its closure (and whatever that pins) even on a clock
// nobody advances. Fired and stopped events are recycled through a free list,
// so a run that schedules millions of callbacks (a full-scale monitor window)
// reuses a bounded set of event objects instead of allocating one per
// callback.
//
// The zero value is not usable; construct with NewVirtual.
type Virtual struct {
	// The current instant, as nanoseconds past start: written under mu, read
	// by Now without it. An integer rather than a boxed time.Time so that
	// crossing an instant allocates nothing.
	start   time.Time
	elapsed atomic.Int64

	mu      sync.Mutex
	events  eventHeap
	seq     uint64
	free    *event   // recycled event objects, linked through next
	scratch []*event // reusable firing-batch buffer (nil while in use)
}

// NewVirtual returns a Virtual clock whose current time is start.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{start: start}
}

// Now implements Clock. It takes no lock: every request reads the clock
// dozens of times and a crawl never advances it, so the instant is one
// atomic load that advanceTo publishes before it fires a batch — a callback,
// and everything it wakes, reads its own event's instant.
//
//tftlint:hotpath
func (v *Virtual) Now() time.Time {
	return v.start.Add(time.Duration(v.elapsed.Load()))
}

// setNow publishes t as the current instant. Caller holds v.mu.
func (v *Virtual) setNow(t time.Time) {
	v.elapsed.Store(int64(t.Sub(v.start)))
}

// AfterFunc implements Clock. Callbacks scheduled with a non-positive delay
// fire at the current virtual time on the next Advance or Run call.
func (v *Virtual) AfterFunc(d time.Duration, f func()) Timer {
	return v.after(d, callback(f), 0)
}

// fired is what an event calls when it fires, with the argument it was
// scheduled with. Anything pointer-shaped sits in an event at no cost, which
// is what lets a stream deadline arm itself without a closure: see
// deadline.fire.
type fired interface{ fire(arg uint64) }

// callback is a plain AfterFunc callback as a fired.
type callback func()

func (f callback) fire(uint64) { f() }

// after schedules f.fire(arg) for d from now.
func (v *Virtual) after(d time.Duration, f fired, arg uint64) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	if d < 0 {
		d = 0
	}
	ev := v.alloc()
	ev.at = v.Now().Add(d)
	ev.seq = v.seq
	ev.f, ev.arg = f, arg
	v.seq++
	heap.Push(&v.events, ev)
	return Timer{clock: v, ev: ev, gen: ev.gen}
}

// stop is Timer.Stop for an event scheduled under gen. index < 0 marks an
// event already popped into a firing batch, which runs regardless.
func (v *Virtual) stop(ev *event, gen uint64) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if ev.gen != gen || ev.index < 0 {
		return false
	}
	heap.Remove(&v.events, ev.index)
	v.recycle(ev)
	return true
}

// Advance moves the clock forward by d, firing every due callback in
// timestamp order. Callbacks may schedule further callbacks; those fire too
// if they fall within the window.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	v.advanceTo(v.Now().Add(d))
	v.mu.Unlock()
}

// Run fires every pending callback, jumping the clock to each event's
// timestamp, until no events remain. Callbacks scheduled during Run also
// fire. It returns the number of callbacks fired.
func (v *Virtual) Run() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for len(v.events) > 0 {
		n += v.advanceTo(v.events[0].at)
	}
	return n
}

// Pending reports the number of callbacks that have been scheduled but have
// not yet fired or been stopped. O(1): progress and stall reporting poll it
// from the crawl hot loop.
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.events)
}

// advanceTo fires due events batch-by-batch and sets now to t, returning how
// many callbacks fired. Caller holds v.mu.
//
// All events sharing one timestamp are drained under a single lock
// acquisition, then run back-to-back outside the lock — one unlock/lock pair
// per instant instead of one per event. Same-instant events scheduled *by*
// a firing callback land in the next batch, preserving (time, seq) order.
func (v *Virtual) advanceTo(t time.Time) int {
	fired := 0
	for {
		batch := v.takeScratch()
		var at time.Time
		for len(v.events) > 0 {
			ev := v.events[0]
			if ev.at.After(t) {
				break
			}
			if len(batch) > 0 && !ev.at.Equal(at) {
				break
			}
			at = ev.at
			heap.Pop(&v.events)
			batch = append(batch, ev)
		}
		if len(batch) == 0 {
			v.giveScratch(batch)
			break
		}
		if at.After(v.Now()) {
			v.setNow(at)
		}
		v.mu.Unlock()
		for _, ev := range batch {
			ev.f.fire(ev.arg)
		}
		v.mu.Lock()
		fired += len(batch)
		for _, ev := range batch {
			v.recycle(ev)
		}
		v.giveScratch(batch)
	}
	if t.After(v.Now()) {
		v.setNow(t)
	}
	return fired
}

// takeScratch claims the reusable batch buffer (a nested Advance from inside
// a callback finds it taken and allocates its own).
func (v *Virtual) takeScratch() []*event {
	s := v.scratch
	v.scratch = nil
	if s == nil {
		s = make([]*event, 0, 16)
	}
	return s[:0]
}

// giveScratch returns a batch buffer for reuse.
func (v *Virtual) giveScratch(s []*event) {
	if v.scratch == nil || cap(s) > cap(v.scratch) {
		v.scratch = s[:0]
	}
}

// alloc takes an event from the free list, or makes one.
func (v *Virtual) alloc() *event {
	ev := v.free
	if ev == nil {
		return &event{}
	}
	v.free = ev.next
	ev.next = nil
	return ev
}

// recycle retires a fired or stopped event to the free list. The generation
// bump invalidates any Timer handle still pointing here.
func (v *Virtual) recycle(ev *event) {
	ev.f = nil
	ev.gen++
	ev.next = v.free
	v.free = ev
}

type event struct {
	at    time.Time
	seq   uint64
	f     fired
	arg   uint64
	gen   uint64
	index int    // position in the heap, -1 once popped or removed
	next  *event // free-list link
}

// eventHeap orders events by (time, sequence) so same-instant callbacks fire
// in scheduling order.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}
