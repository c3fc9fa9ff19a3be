package proxynet

import (
	"math/rand/v2"
	"time"
)

// Backoff computes truncated exponential retry delays with seeded jitter:
// Next returns base doubling per attempt, capped at max, scaled by a jitter
// factor in [0.8, 1.2) drawn from the seeded generator. Reset after a
// success restarts the schedule. A nil generator draws the band's centre,
// which disables jitter; the schedule is shared by the agent's reconnect
// loop and the health breaker's cooldown.
type Backoff struct {
	base, max time.Duration
	rng       *rand.Rand
	attempt   int
}

// backoffJitter is Backoff's +/- jitter fraction.
const backoffJitter = 0.2

// NewBackoff returns a doubling backoff between base and max with 20%
// seeded jitter.
func NewBackoff(base, max time.Duration, rng *rand.Rand) *Backoff {
	return &Backoff{base: base, max: max, rng: rng}
}

// Next returns the delay for the current attempt and advances the
// schedule.
func (b *Backoff) Next() time.Duration {
	draw := 0.5 // centre of the jitter band when no generator is wired
	if b.rng != nil {
		draw = b.rng.Float64()
	}
	d := backoffDelay(b.base, b.max, backoffJitter, b.attempt, draw)
	b.attempt++
	return d
}

// Reset restarts the schedule — call after a successful attempt.
func (b *Backoff) Reset() { b.attempt = 0 }

// backoffDelay is the stateless core shared with the health breaker's
// cooldown: base*2^attempt capped at max, scaled by a jitter factor in
// [1-jitter, 1+jitter) where draw is a uniform sample in [0, 1).
func backoffDelay(base, max time.Duration, jitter float64, attempt int, draw float64) time.Duration {
	if base <= 0 {
		return 0
	}
	d := float64(base)
	for i := 0; i < attempt; i++ {
		d *= 2
		if max > 0 && d >= float64(max) {
			d = float64(max)
			break
		}
	}
	if jitter > 0 {
		d *= 1 - jitter + 2*jitter*draw
	}
	if max > 0 && d > float64(max) {
		d = float64(max)
	}
	return time.Duration(d)
}
