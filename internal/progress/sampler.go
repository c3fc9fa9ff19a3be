package progress

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"github.com/tftproject/tft/internal/metrics"
	"github.com/tftproject/tft/internal/simnet"
)

// Sample is one periodic flight-recorder reading: the tracker's counters,
// sliding-window rates, the ETA over the remaining node population, and the
// runtime watermarks, all stamped with time elapsed on the sampler's clock.
// It is also the "sample" line type of the JSONL checkpoint stream.
type Sample struct {
	// Type is "sample" — the checkpoint stream's line discriminator
	// (manifest lines carry "manifest", watchdog dumps "stall").
	Type       string `json:"type"`
	Experiment string `json:"experiment,omitempty"`
	// ElapsedSeconds is time since Start on the sampler's clock.
	ElapsedSeconds float64 `json:"elapsed_seconds"`

	// Total is the node population the ETA counts down from.
	Total int64 `json:"total"`
	Counts

	// NodesPerSec and ProbesPerSec are sliding-window rates over the last
	// ten samples.
	NodesPerSec  float64 `json:"nodes_per_sec"`
	ProbesPerSec float64 `json:"probes_per_sec"`
	// ETASeconds extrapolates the remaining (Total - Done) work at the
	// current node rate; -1 when unknown (no total, or no progress yet).
	ETASeconds float64 `json:"eta_seconds"`

	Watermarks Watermarks    `json:"watermarks"`
	Shards     []ShardStatus `json:"shards,omitempty"`
	// Stalled is set while the watchdog considers the crawl wedged.
	Stalled bool `json:"stalled,omitempty"`
}

// stallRecord is the watchdog's checkpoint line: a structured report plus
// the goroutine profile, embedded as a string so the stream stays
// line-parseable.
type stallRecord struct {
	Type                 string  `json:"type"` // "stall"
	Experiment           string  `json:"experiment,omitempty"`
	ElapsedSeconds       float64 `json:"elapsed_seconds"`
	SinceProgressSeconds float64 `json:"since_progress_seconds"`
	Done                 int64   `json:"done"`
	Probes               int64   `json:"probes"`
	Goroutines           int64   `json:"goroutines"`
	GoroutineProfile     string  `json:"goroutine_profile,omitempty"`
}

const (
	defaultInterval = time.Second
	// rateWindow is how many trailing samples the rate estimate spans.
	rateWindow = 10
)

// Sampler periodically snapshots a Tracker on an injected clock. All time
// flows through Clock, so a Virtual clock drives the sampler
// deterministically in tests while cmd/tft injects simnet.Real for live
// runs.
//
// Configure the exported fields before Start; they must not change while
// the sampler runs.
type Sampler struct {
	// Tracker is the progress source (required).
	Tracker *Tracker
	// Clock schedules the ticks (required).
	Clock simnet.Clock
	// Interval between samples (default 1s).
	Interval time.Duration
	// Metrics, when non-nil, receives the progress gauges
	// (progress_nodes_done, progress_probes_per_sec, progress_eta_seconds,
	// progress_heap_bytes, progress_goroutines) and the watchdog's
	// progress_stalls_total.
	Metrics *metrics.Registry
	// Checkpoint, when non-nil, receives the JSONL stream: one "sample"
	// line per tick, "stall" lines from the watchdog. The stream is flushed
	// after every line so it can be tailed live.
	Checkpoint io.Writer
	// StallAfter arms the watchdog: when no probe or completion lands for
	// at least this long, the sampler counts a stall and dumps the
	// goroutine profile to the checkpoint. Zero disables the watchdog. The
	// watchdog fires once per stall episode and re-arms when progress
	// resumes.
	StallAfter time.Duration
	// OnSample, when non-nil, observes every sample — the -progress stderr
	// line. Called outside the sampler lock.
	OnSample func(Sample)

	mu             sync.Mutex
	started        bool
	stopped        bool
	start          time.Time
	timer          simnet.Timer
	bw             *bufio.Writer
	enc            *json.Encoder
	writeErr       error
	window         []ratePoint
	lastCounts     int64
	lastProgressAt time.Time
	stalled        bool
}

// ratePoint is one window entry for the sliding-rate estimate.
type ratePoint struct {
	at     time.Time
	probes int64
	done   int64
}

func (s *Sampler) interval() time.Duration {
	if s.Interval > 0 {
		return s.Interval
	}
	return defaultInterval
}

// Start arms the periodic tick. It returns an error when the required
// fields are missing or the sampler already ran.
func (s *Sampler) Start() error {
	if s.Tracker == nil {
		return errors.New("progress: Sampler.Tracker is required")
	}
	if s.Clock == nil {
		return errors.New("progress: Sampler.Clock is required")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return errors.New("progress: Sampler started twice")
	}
	s.started = true
	s.start = s.Clock.Now()
	s.lastProgressAt = s.start
	if s.Checkpoint != nil {
		s.bw = bufio.NewWriterSize(s.Checkpoint, 16<<10)
		s.enc = json.NewEncoder(s.bw)
	}
	s.timer = s.Clock.AfterFunc(s.interval(), s.tick)
	return nil
}

// tick takes one sample and re-arms.
func (s *Sampler) tick() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	sample := s.sampleLocked()
	s.timer = s.Clock.AfterFunc(s.interval(), s.tick)
	cb := s.OnSample
	s.mu.Unlock()
	if cb != nil {
		cb(sample)
	}
}

// Stop disarms the tick, takes one final sample (so even a crawl shorter
// than the interval leaves a record) and flushes the checkpoint. It reports
// the first checkpoint write error, if any. Stop is idempotent.
func (s *Sampler) Stop() error {
	s.mu.Lock()
	if !s.started || s.stopped {
		err := s.writeErr
		s.mu.Unlock()
		return err
	}
	s.stopped = true
	s.timer.Stop()
	sample := s.sampleLocked()
	if s.bw != nil {
		if err := s.bw.Flush(); err != nil && s.writeErr == nil {
			s.writeErr = err
		}
		s.bw = nil
		s.enc = nil
	}
	err := s.writeErr
	cb := s.OnSample
	s.mu.Unlock()
	if cb != nil {
		cb(sample)
	}
	return err
}

// sampleLocked takes one reading: snapshot the tracker, capture watermarks,
// update rates and the watchdog, publish gauges and the tracker's latest
// sample, and write the checkpoint line. Caller holds s.mu.
func (s *Sampler) sampleLocked() Sample {
	now := s.Clock.Now()
	st := s.Tracker.Snapshot()
	wm := s.Tracker.CaptureWatermarks()

	sample := Sample{
		Type:           "sample",
		Experiment:     st.Experiment,
		ElapsedSeconds: now.Sub(s.start).Seconds(),
		Total:          st.TotalNodes,
		Counts:         st.Counts,
		Watermarks:     wm,
		Shards:         st.Shards,
		ETASeconds:     -1,
	}

	// Sliding-window rates: compare against the oldest retained point.
	s.window = append(s.window, ratePoint{at: now, probes: st.Probes, done: st.Done})
	if n := rateWindow + 1; len(s.window) > n {
		s.window = s.window[len(s.window)-n:]
	}
	oldest := s.window[0]
	if dt := now.Sub(oldest.at).Seconds(); dt > 0 {
		sample.ProbesPerSec = float64(st.Probes-oldest.probes) / dt
		sample.NodesPerSec = float64(st.Done-oldest.done) / dt
	}
	if st.TotalNodes > 0 && sample.NodesPerSec > 0 {
		remaining := st.TotalNodes - st.Done
		if remaining < 0 {
			remaining = 0
		}
		sample.ETASeconds = float64(remaining) / sample.NodesPerSec
	}

	s.watchdogLocked(&sample, st, now)

	s.publishGauges(sample)

	published := sample
	s.Tracker.setSample(&published)

	if s.enc != nil {
		if err := s.enc.Encode(sample); err != nil && s.writeErr == nil {
			s.writeErr = err
		}
		if err := s.bw.Flush(); err != nil && s.writeErr == nil {
			s.writeErr = err
		}
	}
	return sample
}

// watchdogLocked advances the stall detector: any new probe or completion
// re-arms it; otherwise, once StallAfter elapses without progress, it fires
// exactly once per episode. Caller holds s.mu.
func (s *Sampler) watchdogLocked(sample *Sample, st Status, now time.Time) {
	counts := st.Probes + st.Done
	if counts != s.lastCounts {
		s.lastCounts = counts
		s.lastProgressAt = now
		s.stalled = false
		return
	}
	if s.StallAfter <= 0 {
		return
	}
	since := now.Sub(s.lastProgressAt)
	if since < s.StallAfter {
		sample.Stalled = s.stalled
		return
	}
	sample.Stalled = true
	if s.stalled {
		return // already reported this episode
	}
	s.stalled = true
	s.Tracker.noteStall()
	s.Metrics.Counter("progress_stalls_total").Inc()
	if s.enc != nil {
		rec := stallRecord{
			Type:                 "stall",
			Experiment:           st.Experiment,
			ElapsedSeconds:       now.Sub(s.start).Seconds(),
			SinceProgressSeconds: since.Seconds(),
			Done:                 st.Done,
			Probes:               st.Probes,
			Goroutines:           sample.Watermarks.Goroutines,
			GoroutineProfile:     goroutineProfile(),
		}
		if err := s.enc.Encode(rec); err != nil && s.writeErr == nil {
			s.writeErr = err
		}
	}
}

// publishGauges mirrors the sample into the Prometheus-exposed gauges.
// Rates round to the nearest integer (Gauge is int64); the heap gauge is in
// bytes. ETA publishes -1 while unknown, matching the JSON convention.
func (s *Sampler) publishGauges(sample Sample) {
	m := s.Metrics
	if m == nil {
		return
	}
	m.Gauge("progress_nodes_done").Set(sample.Done)
	m.Gauge("progress_nodes_total").Set(sample.Total)
	m.Gauge("progress_probes_per_sec").Set(int64(sample.ProbesPerSec + 0.5))
	eta := int64(-1)
	if sample.ETASeconds >= 0 {
		eta = int64(sample.ETASeconds + 0.5)
	}
	m.Gauge("progress_eta_seconds").Set(eta)
	m.Gauge("progress_heap_bytes").Set(int64(sample.Watermarks.HeapBytes))
	m.Gauge("progress_goroutines").Set(sample.Watermarks.Goroutines)
}

// goroutineProfile renders the debug=1 goroutine profile — the wedged-shard
// forensics the watchdog attaches to its checkpoint line.
func goroutineProfile() string {
	p := pprof.Lookup("goroutine")
	if p == nil {
		return ""
	}
	var b strings.Builder
	if err := p.WriteTo(&b, 1); err != nil {
		return ""
	}
	return b.String()
}
