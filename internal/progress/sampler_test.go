package progress

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tftproject/tft/internal/metrics"
	"github.com/tftproject/tft/internal/simnet"
)

var t0 = time.Date(2016, 4, 13, 0, 0, 0, 0, time.UTC)

func TestSamplerRequiredFields(t *testing.T) {
	if err := (&Sampler{Clock: simnet.NewVirtual(t0)}).Start(); err == nil {
		t.Fatal("Start without Tracker should fail")
	}
	if err := (&Sampler{Tracker: NewTracker()}).Start(); err == nil {
		t.Fatal("Start without Clock should fail")
	}
	s := &Sampler{Tracker: NewTracker(), Clock: simnet.NewVirtual(t0)}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err == nil {
		t.Fatal("double Start should fail")
	}
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := s.Stop(); err != nil {
		t.Fatal("Stop must be idempotent")
	}
}

// A Virtual clock drives the sampler deterministically: rates, ETA, what
// OnSample sees, and the checkpoint stream are all exact functions of the
// scripted progress.
func TestSamplerVirtualClock(t *testing.T) {
	clock := simnet.NewVirtual(t0)
	tk := NewTracker()
	tk.Begin("dns", 1000, 4)
	var ckpt bytes.Buffer
	reg := metrics.NewRegistry()
	var samples []Sample
	s := &Sampler{
		Tracker:    tk,
		Clock:      clock,
		Interval:   time.Second,
		Metrics:    reg,
		Checkpoint: &ckpt,
		OnSample:   func(sm Sample) { samples = append(samples, sm) },
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}

	// 10 ticks at 10 done/probes per second.
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			tk.Probe(j % 4)
			tk.Done(j % 4)
		}
		clock.Advance(time.Second)
	}
	if len(samples) != 10 {
		t.Fatalf("samples = %d, want 10", len(samples))
	}
	last := samples[len(samples)-1]
	if last.Done != 100 || last.Total != 1000 {
		t.Fatalf("last sample counts = %+v", last)
	}
	// Steady 10 nodes/sec over the window.
	if last.NodesPerSec < 9.99 || last.NodesPerSec > 10.01 {
		t.Fatalf("nodes/sec = %v, want 10", last.NodesPerSec)
	}
	// 900 remaining at 10/sec.
	if last.ETASeconds < 89.9 || last.ETASeconds > 90.1 {
		t.Fatalf("eta = %v, want 90", last.ETASeconds)
	}
	if last.ElapsedSeconds != 10 {
		t.Fatalf("elapsed = %v, want 10", last.ElapsedSeconds)
	}

	// Gauges mirror the latest sample (WritePrometheus adds the tft_ prefix).
	snap := reg.Snapshot()
	if got := snap.Gauges["progress_nodes_done"]; got != 100 {
		t.Errorf("progress_nodes_done gauge = %d", got)
	}
	if got := snap.Gauges["progress_probes_per_sec"]; got != 10 {
		t.Errorf("progress_probes_per_sec gauge = %d", got)
	}
	if got := snap.Gauges["progress_eta_seconds"]; got != 90 {
		t.Errorf("progress_eta_seconds gauge = %d", got)
	}

	// The tracker publishes the latest sample to Snapshot readers.
	if sm := tk.Snapshot().Sample; sm == nil || sm.Done != 100 {
		t.Fatalf("tracker last sample = %+v", sm)
	}

	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	// Stop appended one final sample.
	if n := len(samples); n != 11 {
		t.Fatalf("samples after Stop = %d, want 11", n)
	}

	// Every checkpoint line parses and is a "sample".
	sc := bufio.NewScanner(&ckpt)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad checkpoint line %q: %v", sc.Text(), err)
		}
		if m["type"] != "sample" {
			t.Fatalf("unexpected line type %v", m["type"])
		}
		lines++
	}
	if lines != 11 {
		t.Fatalf("checkpoint lines = %d, want 11", lines)
	}
}

// wedgedFakeShard blocks forever on a channel — the named frame the stall
// dump must surface in its goroutine profile.
func wedgedFakeShard(ch chan struct{}, wg *sync.WaitGroup) {
	wg.Done()
	<-ch
}

// The watchdog: a wedged shard trips the stall after StallAfter without
// progress, fires exactly once per episode, dumps a goroutine profile
// naming the wedged function, and re-arms when progress resumes.
func TestStallWatchdog(t *testing.T) {
	release := make(chan struct{})
	var ready sync.WaitGroup
	ready.Add(1)
	go wedgedFakeShard(release, &ready)
	ready.Wait()
	defer close(release)

	clock := simnet.NewVirtual(t0)
	tk := NewTracker()
	tk.Begin("dns", 100, 2)
	var ckpt bytes.Buffer
	reg := metrics.NewRegistry()
	var latest Sample
	s := &Sampler{
		Tracker:    tk,
		Clock:      clock,
		Interval:   time.Second,
		Metrics:    reg,
		Checkpoint: &ckpt,
		StallAfter: 3 * time.Second,
		OnSample:   func(sm Sample) { latest = sm },
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}

	// Progress for 2 ticks, then the crawl wedges.
	tk.Probe(0)
	tk.Done(0)
	clock.Advance(time.Second)
	tk.Probe(1)
	clock.Advance(time.Second)

	// 10 stalled ticks: well past StallAfter, but only one report.
	clock.Advance(10 * time.Second)
	if got := tk.Stalls(); got != 1 {
		t.Fatalf("stalls after wedge = %d, want 1 (single-fire per episode)", got)
	}
	if got := reg.Snapshot().Counter("progress_stalls_total"); got != 1 {
		t.Fatalf("progress_stalls_total after wedge = %d, want 1", got)
	}
	if !latest.Stalled {
		t.Fatal("latest sample should be marked stalled")
	}

	// The checkpoint stream carries exactly one "stall" line, naming the
	// experiment and how long it has been stuck, whose goroutine profile
	// names the wedged function.
	var stallLines []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(ckpt.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad checkpoint line: %v", err)
		}
		if m["type"] == "stall" {
			stallLines = append(stallLines, m)
		}
	}
	if len(stallLines) != 1 {
		t.Fatalf("stall lines = %d, want 1", len(stallLines))
	}
	if since, _ := stallLines[0]["since_progress_seconds"].(float64); stallLines[0]["experiment"] != "dns" || since < 3 {
		t.Fatalf("stall line = experiment %v, since-progress %v; want dns, >= 3",
			stallLines[0]["experiment"], stallLines[0]["since_progress_seconds"])
	}
	prof, _ := stallLines[0]["goroutine_profile"].(string)
	if !strings.Contains(prof, "wedgedFakeShard") {
		t.Fatalf("goroutine profile does not name the wedged shard:\n%s", prof)
	}

	// Progress resumes: the episode ends and a later stall fires again.
	tk.Done(1)
	clock.Advance(time.Second)
	if latest.Stalled {
		t.Fatal("progress should clear the stalled flag")
	}
	clock.Advance(10 * time.Second)
	if got := tk.Stalls(); got != 2 {
		t.Fatalf("stalls after second wedge = %d, want 2 (watchdog re-arms)", got)
	}
	if got := reg.Snapshot().Counter("progress_stalls_total"); got != 2 {
		t.Fatalf("progress_stalls_total after second wedge = %d, want 2", got)
	}

	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
}
