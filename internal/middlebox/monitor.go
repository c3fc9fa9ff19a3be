package middlebox

import (
	"math"
	"math/rand/v2"
	"net/netip"
	"sync"
	"time"
)

// DelaySpec is a sampling distribution for monitor refetch delays. Figure 5
// of the paper is the CDF of these delays per monitoring entity, so the
// world encodes each entity's observed distribution here.
type DelaySpec struct {
	Min, Max time.Duration
	// LogUniform samples uniformly in log space (straight lines on the
	// paper's log-x CDF); otherwise sampling is uniform.
	LogUniform bool
}

// Sample draws one delay.
func (d DelaySpec) Sample(rng *rand.Rand) time.Duration {
	if d.Max <= d.Min {
		return d.Min
	}
	if d.LogUniform {
		lo, hi := math.Log(float64(d.Min)), math.Log(float64(d.Max))
		return time.Duration(math.Exp(lo + rng.Float64()*(hi-lo)))
	}
	return d.Min + time.Duration(rng.Int64N(int64(d.Max-d.Min)))
}

// RefetchSpec describes one unexpected request a monitor issues per
// observed fetch.
type RefetchSpec struct {
	// Delay distributes the time between the node's request and this one.
	Delay DelaySpec
	// Sources are the candidate origin addresses of the request (the
	// monitoring entity's servers); one is picked per fetch.
	Sources []netip.Addr
	// PreFetchProb is the probability this request instead races *ahead* of
	// the node's (Bluecoat fetches before letting the user's request
	// proceed 83% of the time, §7.2.1); when it fires, the delay is the
	// negated Lead sample.
	PreFetchProb float64
	// Lead distributes how far ahead the pre-fetch lands.
	Lead DelaySpec
}

// Watcher is a content-monitoring party on a node's path: anti-virus
// reputation services, ISP monitoring, or a VPN's "malware protection". It
// duplicates the node's HTTP requests toward the monitoring entity's own
// servers (§7).
type Watcher struct {
	// Product is the ground-truth label ("TrendMicro", "TalkTalk", ...).
	Product string
	// Requests lists the unexpected requests issued per observed fetch.
	Requests []RefetchSpec
	// Rand is the node's own stream; randMu serialises the draws of
	// concurrent fetches through the node.
	Rand   *rand.Rand
	randMu sync.Mutex
	// Refetch issues a monitoring fetch of http://host+path from src after
	// delay. A negative delay models a monitor that raced ahead of the
	// user's held request (Bluecoat, §7.2.1): the fetch happens now but the
	// origin is asked to log it backdated. See origin.SkewHeader.
	Refetch func(src netip.Addr, host, path string, delay time.Duration)
}

// Observe issues the watcher's requests for the node's fetch of
// http://host+path, which has just happened.
func (w *Watcher) Observe(host, path string) {
	// Two crawl workers can land on the same node at once, and the node's
	// random stream is the one thing their fetches share: draw the whole
	// plan under the lock, act on it outside (a pre-fetch dials).
	type refetch struct {
		src   netip.Addr
		delay time.Duration
	}
	var buf [4]refetch
	plan := buf[:0]
	w.randMu.Lock()
	for _, spec := range w.Requests {
		if len(spec.Sources) == 0 {
			continue
		}
		src := spec.Sources[w.Rand.IntN(len(spec.Sources))]
		var delay time.Duration
		if spec.PreFetchProb > 0 && decide(w.Rand, spec.PreFetchProb) {
			delay = -spec.Lead.Sample(w.Rand)
		} else {
			delay = spec.Delay.Sample(w.Rand)
		}
		plan = append(plan, refetch{src, delay})
	}
	w.randMu.Unlock()
	for _, r := range plan {
		w.Refetch(r.src, host, path, r.delay)
	}
}
