package simnet

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2016, 4, 13, 0, 0, 0, 0, time.UTC)

func TestVirtualNow(t *testing.T) {
	c := NewVirtual(t0)
	if !c.Now().Equal(t0) {
		t.Fatalf("Now() = %v, want %v", c.Now(), t0)
	}
	c.Advance(5 * time.Second)
	if got := c.Now(); !got.Equal(t0.Add(5 * time.Second)) {
		t.Fatalf("Now() after Advance = %v", got)
	}
}

func TestVirtualAfterFuncFiresInOrder(t *testing.T) {
	c := NewVirtual(t0)
	var order []int
	c.AfterFunc(3*time.Second, func() { order = append(order, 3) })
	c.AfterFunc(1*time.Second, func() { order = append(order, 1) })
	c.AfterFunc(2*time.Second, func() { order = append(order, 2) })
	c.Advance(10 * time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order = %v, want [1 2 3]", order)
	}
}

func TestVirtualAfterFuncSameInstantFIFO(t *testing.T) {
	c := NewVirtual(t0)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		c.AfterFunc(time.Second, func() { order = append(order, i) })
	}
	c.Advance(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant order = %v, want FIFO", order)
		}
	}
}

func TestVirtualAdvancePartial(t *testing.T) {
	c := NewVirtual(t0)
	fired := 0
	c.AfterFunc(time.Second, func() { fired++ })
	c.AfterFunc(time.Hour, func() { fired++ })
	c.Advance(time.Minute)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if c.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", c.Pending())
	}
}

func TestVirtualCallbackSeesEventTime(t *testing.T) {
	c := NewVirtual(t0)
	var at time.Time
	c.AfterFunc(7*time.Second, func() { at = c.Now() })
	c.Advance(time.Minute)
	if !at.Equal(t0.Add(7 * time.Second)) {
		t.Fatalf("callback saw %v, want %v", at, t0.Add(7*time.Second))
	}
}

func TestVirtualNestedSchedule(t *testing.T) {
	c := NewVirtual(t0)
	var hits []time.Time
	c.AfterFunc(time.Second, func() {
		hits = append(hits, c.Now())
		c.AfterFunc(time.Second, func() { hits = append(hits, c.Now()) })
	})
	c.Advance(time.Minute)
	if len(hits) != 2 {
		t.Fatalf("hits = %d, want 2 (nested event inside window must fire)", len(hits))
	}
	if !hits[1].Equal(t0.Add(2 * time.Second)) {
		t.Fatalf("nested fired at %v, want %v", hits[1], t0.Add(2*time.Second))
	}
}

func TestVirtualStop(t *testing.T) {
	c := NewVirtual(t0)
	fired := false
	tm := c.AfterFunc(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	c.Advance(time.Hour)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestVirtualRunDrainsAll(t *testing.T) {
	c := NewVirtual(t0)
	count := 0
	c.AfterFunc(time.Hour, func() {
		count++
		c.AfterFunc(24*time.Hour, func() { count++ })
	})
	n := c.Run()
	if n != 2 || count != 2 {
		t.Fatalf("Run fired %d (count %d), want 2", n, count)
	}
	if got := c.Now(); !got.Equal(t0.Add(25 * time.Hour)) {
		t.Fatalf("Now after Run = %v, want %v", got, t0.Add(25*time.Hour))
	}
}

func TestVirtualNegativeDelayClamped(t *testing.T) {
	c := NewVirtual(t0)
	fired := false
	c.AfterFunc(-time.Hour, func() { fired = true })
	c.Advance(0)
	if !fired {
		t.Fatal("negative-delay callback did not fire at current time")
	}
	if !c.Now().Equal(t0) {
		t.Fatal("clock moved backwards")
	}
}

func TestVirtualConcurrentSchedule(t *testing.T) {
	c := NewVirtual(t0)
	var mu sync.Mutex
	fired := 0
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.AfterFunc(time.Duration(i)*time.Millisecond, func() {
				mu.Lock()
				fired++
				mu.Unlock()
			})
		}(i)
	}
	wg.Wait()
	c.Advance(time.Second)
	if fired != 50 {
		t.Fatalf("fired = %d, want 50", fired)
	}
}

func TestRealClockBasics(t *testing.T) {
	var c Clock = Real{}
	before := time.Now()
	if c.Now().Before(before) {
		t.Fatal("Real.Now went backwards")
	}
	done := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Real.AfterFunc never fired")
	}
}

// TestVirtualStopRacesFiring hammers Stop from another goroutine while the
// clock fires the same timers: whatever the interleaving, exactly one of
// {fired, stopped-true} holds per timer, and recycled event objects must
// never leak a stale cancellation into a later timer (-race guards the
// memory side).
func TestVirtualStopRacesFiring(t *testing.T) {
	for round := 0; round < 50; round++ {
		c := NewVirtual(t0)
		const n = 64
		var fired [n]int32
		timers := make([]Timer, n)
		for i := 0; i < n; i++ {
			i := i
			timers[i] = c.AfterFunc(time.Millisecond, func() { fired[i]++ })
		}
		stopped := make([]bool, n)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range timers {
				stopped[i] = timers[i].Stop()
			}
		}()
		c.Advance(time.Millisecond)
		wg.Wait()
		for i := 0; i < n; i++ {
			if stopped[i] == (fired[i] == 1) {
				t.Fatalf("round %d timer %d: stopped=%v fired=%d; want exactly one",
					round, i, stopped[i], fired[i])
			}
		}
		// The generation bump must make late Stops on fired (and since
		// recycled) events report false, even if the event object now
		// backs a different timer.
		reused := c.AfterFunc(time.Millisecond, func() {})
		for i := range timers {
			if timers[i].Stop() {
				t.Fatalf("round %d timer %d: Stop true after settle", round, i)
			}
		}
		if !reused.Stop() {
			t.Fatalf("round %d: fresh timer must stop", round)
		}
	}
}

// TestVirtualSameInstantReschedule pins the batching contract: callbacks
// that re-schedule at the same instant run in the same Advance, after the
// current batch, in scheduling order.
func TestVirtualSameInstantReschedule(t *testing.T) {
	c := NewVirtual(t0)
	var order []string
	c.AfterFunc(time.Second, func() {
		order = append(order, "a")
		c.AfterFunc(0, func() { order = append(order, "a2") })
	})
	c.AfterFunc(time.Second, func() {
		order = append(order, "b")
		c.AfterFunc(0, func() { order = append(order, "b2") })
	})
	c.Advance(time.Second)
	want := "a,b,a2,b2"
	got := ""
	for i, s := range order {
		if i > 0 {
			got += ","
		}
		got += s
	}
	if got != want {
		t.Fatalf("firing order %q, want %q", got, want)
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain", c.Pending())
	}
}

// TestVirtualAfterFuncDuringRun schedules from another goroutine while Run
// drains the heap; every callback must fire exactly once and Pending must
// land on zero.
func TestVirtualAfterFuncDuringRun(t *testing.T) {
	c := NewVirtual(t0)
	var mu sync.Mutex
	firedCount := 0
	count := func() { mu.Lock(); firedCount++; mu.Unlock() }
	var wg sync.WaitGroup
	wg.Add(1)
	c.AfterFunc(time.Millisecond, func() {
		// Runs inside Run: keep the external scheduler racing the drain.
		wg.Done()
		count()
	})
	const extra = 200
	go func() {
		wg.Wait()
		for i := 0; i < extra; i++ {
			c.AfterFunc(time.Duration(i)*time.Microsecond, count)
		}
	}()
	total := 0
	for total < 1+extra {
		total += c.Run()
	}
	mu.Lock()
	defer mu.Unlock()
	if firedCount != 1+extra {
		t.Fatalf("fired %d callbacks, want %d", firedCount, 1+extra)
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain", c.Pending())
	}
}

// TestVirtualPendingCounts pins Pending against schedule,
// stop, and fire transitions.
func TestVirtualPendingCounts(t *testing.T) {
	c := NewVirtual(t0)
	if c.Pending() != 0 {
		t.Fatalf("fresh clock Pending() = %d", c.Pending())
	}
	a := c.AfterFunc(time.Second, func() {})
	b := c.AfterFunc(2*time.Second, func() {})
	c.AfterFunc(3*time.Second, func() {})
	if got := c.Pending(); got != 3 {
		t.Fatalf("Pending() = %d, want 3", got)
	}
	if !a.Stop() {
		t.Fatal("Stop() = false on pending timer")
	}
	if got := c.Pending(); got != 2 {
		t.Fatalf("Pending() after Stop = %d, want 2", got)
	}
	c.Advance(2 * time.Second)
	if got := c.Pending(); got != 1 {
		t.Fatalf("Pending() after Advance = %d, want 1", got)
	}
	if b.Stop() {
		t.Fatal("Stop() = true on fired timer")
	}
	c.Run()
	if got := c.Pending(); got != 0 {
		t.Fatalf("Pending() after Run = %d, want 0", got)
	}
}

// TestVirtualStopLeavesNothingBehind: on a clock nobody advances, a stopped
// timer must leave the heap at once and let go of everything its callback
// captured. (Stop used to flag the event and leave it, closure and all, for
// an Advance that four of the five crawls never make — which pinned the
// pipe pair behind every cleared stream deadline for the rest of the run.)
func TestVirtualStopLeavesNothingBehind(t *testing.T) {
	c := NewVirtual(t0)
	collected := make(chan struct{})
	func() {
		pinned := new([1 << 10]byte)
		runtime.SetFinalizer(pinned, func(*[1 << 10]byte) { close(collected) })
		if !c.AfterFunc(time.Hour, func() { pinned[0]++ }).Stop() {
			t.Fatal("Stop() = false on pending timer")
		}
	}()
	for i := 0; i < 100_000; i++ {
		if !c.AfterFunc(time.Hour, func() {}).Stop() {
			t.Fatalf("timer %d: Stop() = false on pending timer", i)
		}
	}
	if got := c.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after stopping every timer", got)
	}
	if got := len(c.events); got != 0 {
		t.Fatalf("event heap holds %d stopped events", got)
	}
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		t.Fatal("object captured by a stopped callback is still reachable after GC")
	}
}

// TestVirtualStopFromSameInstantCallback: by the time a batch fires, every
// event of that instant has left the heap, so a callback that stops a
// sibling of the same instant is too late — Stop reports false and the
// sibling still runs, once.
func TestVirtualStopFromSameInstantCallback(t *testing.T) {
	c := NewVirtual(t0)
	var sibling Timer
	stopped, ran := true, 0
	c.AfterFunc(time.Second, func() { stopped = sibling.Stop() })
	sibling = c.AfterFunc(time.Second, func() { ran++ })
	later := c.AfterFunc(2*time.Second, func() { t.Error("timer stopped from a callback fired") })
	c.AfterFunc(time.Second, func() {
		if !later.Stop() {
			t.Error("Stop() = false on a later instant's timer")
		}
	})
	c.Advance(3 * time.Second)
	if stopped {
		t.Fatal("Stop() = true on a timer already in the firing batch")
	}
	if ran != 1 {
		t.Fatalf("sibling ran %d times, want 1", ran)
	}
	if c.Pending() != 0 || len(c.events) != 0 {
		t.Fatalf("Pending() = %d, heap %d after drain", c.Pending(), len(c.events))
	}
}
