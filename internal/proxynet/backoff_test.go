package proxynet

import (
	"testing"
	"time"

	"github.com/tftproject/tft/internal/simnet"
)

func TestBackoffDoublesAndCaps(t *testing.T) {
	b := NewBackoff(100*time.Millisecond, 1*time.Second, nil) // no generator: no jitter
	want := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1 * time.Second,
		1 * time.Second,
	}
	for i, w := range want {
		if got := b.Next(); got != w {
			t.Fatalf("attempt %d: got %v, want %v", i, got, w)
		}
	}
	b.Reset()
	if got := b.Next(); got != want[0] {
		t.Fatalf("after Reset: got %v, want %v", got, want[0])
	}
}

func TestBackoffJitterBandAndDeterminism(t *testing.T) {
	base, max := 100*time.Millisecond, 10*time.Second
	run := func() []time.Duration {
		b := NewBackoff(base, max, simnet.NewRand(7))
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = b.Next()
		}
		return out
	}
	d1, d2 := run(), run()
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("attempt %d: %v vs %v under the same seed", i, d1[i], d2[i])
		}
		// The ideal (jitterless) delay for this attempt.
		ideal := float64(base) * float64(int(1)<<i)
		if ideal > float64(max) {
			ideal = float64(max)
		}
		lo, hi := time.Duration(0.8*ideal), time.Duration(1.2*ideal)
		if d1[i] < lo || d1[i] > hi {
			t.Fatalf("attempt %d: %v outside jitter band [%v, %v]", i, d1[i], lo, hi)
		}
	}
}

func TestBackoffNilRNGUsesBandCentre(t *testing.T) {
	b := NewBackoff(100*time.Millisecond, time.Second, nil)
	// draw = 0.5 makes the jitter factor exactly 1.
	if got := b.Next(); got != 100*time.Millisecond {
		t.Fatalf("nil-rng first delay = %v, want 100ms", got)
	}
}

func TestBackoffDelayGuards(t *testing.T) {
	if d := backoffDelay(0, time.Second, 0.2, 3, 0.5); d != 0 {
		t.Fatalf("zero base should yield 0, got %v", d)
	}
	if d := backoffDelay(time.Second, 0, 0, 4, 0.5); d != 16*time.Second {
		t.Fatalf("uncapped delay = %v, want 16s", d)
	}
}

// TestAgentBackoffKeyedByZID: agents on one gateway must not draw the same
// reconnect jitter, or a gateway restart brings them all back at once — and
// one agent's schedule is a function of its zID alone.
func TestAgentBackoffKeyedByZID(t *testing.T) {
	first := func(zid string, conn int) time.Duration {
		return (&Agent{Node: &ExitNode{ZID: zid}}).backoff(conn).Next()
	}
	a, b := first("znode0001", 0), first("znode0002", 0)
	if a == b {
		t.Fatalf("two zIDs share a first reconnect delay, %v", a)
	}
	if again := first("znode0001", 0); again != a {
		t.Fatalf("znode0001 drew %v, then %v", a, again)
	}
	if other := first("znode0001", 1); other == a {
		t.Fatalf("one agent's connections 0 and 1 share a first delay, %v", a)
	}
	for _, d := range []time.Duration{a, b} {
		if d < 400*time.Millisecond || d > 600*time.Millisecond {
			t.Fatalf("first delay %v outside the default 500ms ± 20%%", d)
		}
	}
}
