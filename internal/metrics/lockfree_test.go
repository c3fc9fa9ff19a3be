package metrics

import (
	"sync"
	"testing"
	"time"
)

// TestExistingNameTakesNoLock: a request finds its instruments by name half
// a dozen times, so finding one that exists may not queue behind whoever is
// creating another.
func TestExistingNameTakesNoLock(t *testing.T) {
	r := NewRegistry()
	c, g := r.Counter("proxy_get_total"), r.Gauge("proxy_sessions_pinned")
	h, lc := r.Histogram("probe_duration_seconds", []float64{1}), r.Labeled("nodes_by_country")
	r.mu.Lock()
	defer r.mu.Unlock()
	done := make(chan bool)
	go func() {
		done <- r.Counter("proxy_get_total") == c && r.Gauge("proxy_sessions_pinned") == g &&
			r.Histogram("probe_duration_seconds", nil) == h && r.Labeled("nodes_by_country") == lc
	}()
	select {
	case same := <-done:
		if !same {
			t.Fatal("a lookup by name returned a different instrument")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a lookup of an existing name waits for the creation lock")
	}
}

// TestExistingNameAllocatesNothing: finding an instrument that exists is a
// read of the published map, for all four kinds.
func TestExistingNameAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{1}
	lookups := func() {
		r.Counter("c")
		r.Gauge("g")
		r.Histogram("h", bounds)
		r.Labeled("l")
	}
	lookups()
	if got := testing.AllocsPerRun(100, lookups); got != 0 {
		t.Fatalf("four lookups of existing names allocate %.0f times, want 0", got)
	}
}

// TestConcurrentCreationsAgree: goroutines racing to create one name all get
// the instrument that was published; the others' are dropped.
func TestConcurrentCreationsAgree(t *testing.T) {
	r := NewRegistry()
	got := make([]*Histogram, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = r.Histogram("h", []float64{1})
		}()
	}
	wg.Wait()
	for _, h := range got {
		if h != got[0] {
			t.Fatal("racing creators of one name got different histograms")
		}
	}
}

//go:noinline
func shardAtThisDepth() int {
	var probe byte
	return ShardIndex(&probe)
}

// TestShardIndexSpreadsSymmetricGoroutines: crawl workers are goroutines at
// the same call depth of the same code, so their stack addresses differ
// only above the stacks' alignment. A stripe chosen from lower bits puts
// them all on one cell, which is one shared counter.
func TestShardIndexSpreadsSymmetricGoroutines(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		index := make([]int, n)
		var arrived, done sync.WaitGroup
		release := make(chan struct{})
		for g := 0; g < n; g++ {
			arrived.Add(1)
			done.Add(1)
			go func() {
				defer done.Done()
				arrived.Done()
				<-release // all n alive at once, on n stacks
				index[g] = shardAtThisDepth()
				for i := 0; i < 100; i++ {
					if again := shardAtThisDepth(); again != index[g] {
						t.Errorf("goroutine %d moved from shard %d to %d between calls at one depth", g, index[g], again)
						return
					}
				}
			}()
		}
		arrived.Wait()
		close(release)
		done.Wait()
		distinct := map[int]bool{}
		for _, i := range index {
			if i < 0 || i >= numShards {
				t.Fatalf("shard index %d out of range", i)
			}
			distinct[i] = true
		}
		if len(distinct) < n/2 {
			t.Errorf("%d goroutines at equal depth share %d shard(s) %v, want at least %d", n, len(distinct), index, n/2)
		}
	}
}
