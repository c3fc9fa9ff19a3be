package main

import (
	"crypto/sha256"
	"strconv"
	"sync"
	"time"
)

// The reference host is a shared two-core virtual machine whose speed on
// memory-bound code swings between quiet and noisy minutes: over ten
// minutes, fresh-process crawls of one binary and one seed ranged over a
// factor of 1.8 in CPU time per session, and the quartiles of ten runs stood
// 30 % of the median apart (README, "Spread"). No statistic within one
// fifteen-second run removes a swing that lasts minutes. So every timed
// process of the untraced pass is bracketed by two host-speed readings, each
// taken in a fresh process of its own, and its times are reported at the
// reference host's quiet speed: measured time x refKernelSeconds / the
// kernel seconds measured beside it. That brought the same quartiles to
// 4-8 % of the median.
//
// The kernel is fixed work that depends on the Go runtime and the machine
// only, never on the repository's code, so a change to the program under
// test cannot move it: small allocations kept in a map and a list and walked
// (the crawl's own habit), a pointer chase through a table larger than the
// caches, and block copies with a hash over them, in the proportion (2:1:1)
// whose time rose and fell in step with the crawls' when the benchmark was
// sized (correlation 0.9, slope 0.85-1.08 on three workloads). An arithmetic
// chain was tried and left out: the noise does not touch it.

// refKernelSeconds is what measureHostSpeed takes on the reference host in a
// quiet minute (between the tenth and twenty-fifth percentile of 166
// readings over ten minutes that were quiet, then noisy).
const refKernelSeconds = 0.200

// measureHostSpeed runs the kernel and returns its wall seconds. Each part
// runs on `workers` goroutines at once, as the crawl runs its workers.
func measureHostSpeed() float64 {
	table := chaseTable()
	part := func(f func(id int) uint64) time.Duration {
		var wg sync.WaitGroup
		sums := make([]uint64, workers)
		t0 := time.Now()
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				sums[id] = f(id)
			}(g)
		}
		wg.Wait()
		el := time.Since(t0)
		for _, s := range sums {
			kernelSink += s
		}
		return el
	}
	var total time.Duration
	// Twice over, interleaved, so that a disturbance of a tenth of a second
	// does not land on one part only.
	for round := 0; round < 2; round++ {
		total += part(func(id int) uint64 { return kernelChase(table, id) })
		total += part(kernelAlloc)
		total += part(kernelAlloc)
		total += part(kernelCopy)
	}
	return total.Seconds()
}

// kernelSink keeps the kernels' results alive.
var kernelSink uint64

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// chaseTable is one random cycle through 4 M slots (16 MB).
func chaseTable() []uint32 {
	const n = 1 << 22
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := uint64(2463534242)
	for i := n - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	next := make([]uint32, n)
	for i := 0; i < n; i++ {
		next[perm[i]] = perm[(i+1)%n]
	}
	return next
}

func kernelChase(next []uint32, id int) uint64 {
	p := uint32(id * 1234567 % len(next))
	for i := 0; i < 300_000; i++ {
		p = next[p]
	}
	return uint64(p)
}

type kernelNode struct {
	key  string
	next *kernelNode
	buf  []byte
}

func kernelAlloc(id int) uint64 {
	var total uint64
	for round := 0; round < 3; round++ {
		m := make(map[string]*kernelNode)
		var head *kernelNode
		for i := 0; i < 20_000; i++ {
			k := "z" + strconv.Itoa(id) + "-" + strconv.Itoa(i*7919)
			n := &kernelNode{key: k, next: head, buf: make([]byte, 64+i%200)}
			head = n
			m[k] = n
		}
		for n := head; n != nil; n = n.next {
			if m[n.key] == n {
				total += uint64(len(n.buf))
			}
		}
	}
	return total
}

func kernelCopy(id int) uint64 {
	src := make([]byte, 1<<20)
	for i := range src {
		src[i] = byte(i * (id + 3))
	}
	dst := make([]byte, 1<<20)
	var total uint64
	for r := 0; r < 100; r++ {
		for off := 0; off+65536 <= len(src); off += 65536 {
			copy(dst[off:off+65536], src[off:off+65536])
		}
		h := sha256.Sum256(dst[:256<<10])
		total += uint64(h[0])
	}
	return total
}
