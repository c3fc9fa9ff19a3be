package core

import (
	"context"
	"fmt"
	"time"

	"github.com/tftproject/tft/internal/metrics"
	"github.com/tftproject/tft/internal/simnet"
)

// The paper's conclusion (§9) argues the methodology "opens the door to
// continuous measurements worldwide, with the ability to see how various
// types of violations evolve over time." LongitudinalDNS implements that:
// repeated DNS crawls (waves) against the same world, with the virtual
// clock advancing between waves, producing a hijack-rate time series.

// Wave is one crawl's summary in a longitudinal run.
type Wave struct {
	// Index is the wave number (0-based).
	Index int
	// Start is the virtual time the wave began.
	Start time.Time
	// Dataset holds the wave's full observations.
	Dataset *DNSDataset
	// Measured and Hijacked summarize the wave (shared-anycast filtered
	// nodes excluded from Measured).
	Measured int
	Hijacked int
	// Metrics is the wave's own telemetry snapshot: each wave crawls
	// against a fresh registry, so per-wave session counts, stop-rule
	// trajectories, and violation counts stay comparable across waves.
	Metrics *metrics.Snapshot
}

// HijackRate is the wave's hijacked fraction.
func (w Wave) HijackRate() float64 { return rate(w.Hijacked, w.Measured) }

// waveInterval is the virtual time between wave starts: a weekly
// continuous measurement.
const waveInterval = 7 * 24 * time.Hour

// LongitudinalDNS runs the §4 probe in repeated waves.
type LongitudinalDNS struct {
	// Experiment is the per-wave driver; its Auth rules must already be
	// installed. Seed and session namespaces are varied per wave.
	Experiment *DNSExperiment
	// Clock advances between waves.
	Clock *simnet.Virtual
	// Waves is the number of crawls (default 4).
	Waves int
	// BetweenWaves, when non-nil, runs after the clock advances and before
	// the next wave — the hook longitudinal scenarios use to evolve the
	// world (an ISP deploying or retiring a hijacking appliance).
	BetweenWaves func(nextWave int)
}

// Run executes the waves.
func (l *LongitudinalDNS) Run(ctx context.Context) ([]Wave, error) {
	n := l.Waves
	if n <= 0 {
		n = 4
	}
	var waves []Wave
	for i := range n {
		if i > 0 {
			l.Clock.Advance(waveInterval)
			if l.BetweenWaves != nil {
				l.BetweenWaves(i)
			}
		}
		ds, reg, err := l.runWave(ctx, i)
		if err != nil {
			return waves, err
		}
		w := Wave{Index: i, Start: l.Clock.Now(), Dataset: ds, Metrics: reg.Snapshot()}
		for _, o := range ds.Observations {
			if o.SharedAnycast {
				continue
			}
			w.Measured++
			if o.Hijacked {
				w.Hijacked++
			}
		}
		waves = append(waves, w)
	}
	return waves, nil
}

// runWave executes one crawl with wave-scoped probe names, a wave-scoped
// seed, and its own metrics registry — all set on a copy, so the caller's
// experiment is left as it was handed in.
func (l *LongitudinalDNS) runWave(ctx context.Context, wave int) (*DNSDataset, *metrics.Registry, error) {
	// Namespacing happens through the session IDs (sNNN) already being
	// fresh per crawler; d1/d2 names embed them, so waves never collide —
	// but the crawler counts sessions from 1 each run, so prefix the zone
	// via the copy's Zone field.
	exp := *l.Experiment
	exp.Zone = fmt.Sprintf("w%d.%s", wave, l.Experiment.Zone)
	// A fresh seed namespace per wave: new sessions, new d1/d2 names.
	exp.Seed = l.Experiment.Seed + uint64(wave)*1_000_003
	reg := metrics.NewRegistry()
	exp.Crawl.Metrics = reg
	ds, err := exp.Run(ctx)
	return ds, reg, err
}
