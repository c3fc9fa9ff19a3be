package simnet

import (
	"sync"
	"testing"
)

// TestKickerCollapsesReentrantKicks: a kick from inside the drain does not
// drain inline but makes the running drain go again, and once the drain
// has called Finish every later kick returns without draining.
func TestKickerCollapsesReentrantKicks(t *testing.T) {
	var k Kicker
	drains, depth := 0, 0
	var drain func()
	drain = func() {
		depth++
		if depth > 1 {
			t.Fatal("a kick drained inside the running drain")
		}
		drains++
		if drains <= 2 {
			k.Kick(drain) // a notify fired by the drain's own TryWrite
		}
		if drains == 3 {
			k.Finish()
		}
		depth--
	}
	k.Kick(drain)
	if drains != 3 || !k.Finished() {
		t.Fatalf("drained %d times, finished %v; want 3, true", drains, k.Finished())
	}
	k.Kick(drain)
	if drains != 3 {
		t.Fatalf("a kick after Finish drained")
	}
}

// TestKickerSerialisesConcurrentKicks: kicks from many goroutines never run
// two drains at once, and a kick is never lost: the last drain starts after
// the last kick.
func TestKickerSerialisesConcurrentKicks(t *testing.T) {
	var k Kicker
	var mu sync.Mutex
	running, drained, kicked := 0, 0, 0
	drain := func() {
		mu.Lock()
		running++
		if running > 1 {
			t.Error("two drains ran at once")
		}
		drained = kicked
		mu.Unlock()
		mu.Lock()
		running--
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				mu.Lock()
				kicked++
				mu.Unlock()
				k.Kick(drain)
			}
		}()
	}
	wg.Wait()
	if drained != kicked {
		t.Fatalf("the last drain saw %d of %d kicks", drained, kicked)
	}
}
