package proxynet

import (
	"math/rand/v2"
	"sync"
	"time"

	"github.com/tftproject/tft/internal/simnet"
)

// Churner drives node availability over (virtual or real) time: at every
// tick a fraction of nodes flips offline and a fraction of offline nodes
// returns. The Hola network "is very dynamic" (§3.2 footnote 6); this is
// the time-domain counterpart to the pool's per-pick churn roll, and it
// exercises the session-repinning path (§2.3's retry-and-report behaviour)
// under realistic conditions.
type Churner struct {
	Pool  *Pool
	Clock simnet.Clock
	Rand  *rand.Rand
	// Interval between churn ticks (default 10s).
	Interval time.Duration
	// DownProb is the per-tick probability an online node goes offline;
	// UpProb the probability an offline node returns (defaults 0.02/0.5).
	DownProb float64
	UpProb   float64

	mu      sync.Mutex
	stopped bool
	timer   simnet.Timer
}

// Start schedules churn ticks until Stop is called.
func (c *Churner) Start() {
	if c.Interval <= 0 {
		c.Interval = 10 * time.Second
	}
	if c.DownProb == 0 {
		c.DownProb = 0.02
	}
	if c.UpProb == 0 {
		c.UpProb = 0.5
	}
	c.schedule()
}

func (c *Churner) schedule() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return
	}
	c.timer = c.Clock.AfterFunc(c.Interval, func() {
		c.tick()
		c.schedule()
	})
}

// tick flips availability across the pool.
func (c *Churner) tick() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.Pool.Nodes() {
		if n.Online() {
			if c.Rand.Float64() < c.DownProb {
				n.SetOnline(false)
			}
		} else if c.Rand.Float64() < c.UpProb {
			n.SetOnline(true)
		}
	}
}

// Stop halts future ticks.
func (c *Churner) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stopped = true
	c.timer.Stop()
}

// OnlineCount reports currently available in-process nodes.
func (c *Churner) OnlineCount() int {
	n := 0
	for _, node := range c.Pool.Nodes() {
		if node.Online() {
			n++
		}
	}
	return n
}
