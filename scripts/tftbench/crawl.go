package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	tft "github.com/tftproject/tft"
	"github.com/tftproject/tft/internal/progress"
)

// setupResult is the set-up pass of one run: standalone world builds.
type setupResult struct {
	Seconds []float64 `json:"seconds"` // one per build, as measured
	Nodes   int       `json:"nodes"`
	// KernelS is the host-speed reading beside this process (the parent
	// fills it in): the mean of the kernel seconds before and after.
	KernelS float64 `json:"kernel_s,omitempty"`
}

// atReferenceSpeed is the factor that puts a time measured beside a
// host-speed reading of kernelS at the reference host's quiet speed. Without
// a reading (the smoke test) times stay as measured.
func atReferenceSpeed(kernelS float64) float64 {
	if kernelS <= 0 {
		return 1
	}
	return refKernelSeconds / kernelS
}

// measureSetup times population.Build<X>World(seed, scale) on its own, as
// often as fits minBudget (at least five times), with a collection between
// builds so one build's garbage is not the next one's pause. The median is
// setup_s: work that a later change moves out of the crawl and into world
// construction shows here.
func measureSetup(wl workload, seed uint64, scale float64, minBudget time.Duration) (setupResult, error) {
	exp := experimentByName(wl.Experiment)
	var res setupResult
	var spent time.Duration
	for len(res.Seconds) < 5 || (spent < minBudget && len(res.Seconds) < 41) {
		runtime.GC()
		t0 := time.Now()
		w, err := exp.build(seed, scale)
		d := time.Since(t0)
		if err != nil {
			return res, fmt.Errorf("building %s world: %w", wl.Experiment, err)
		}
		res.Nodes = w.Pool.Len()
		res.Seconds = append(res.Seconds, d.Seconds())
		spent += d
	}
	return res, nil
}

// crawlResult is one fresh-process crawl: the manifest's counts and the
// host-side costs of the timed region.
type crawlResult struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Scale    float64 `json:"scale"`

	Sessions      int64 `json:"sessions"`
	UniqueNodes   int64 `json:"unique_nodes"`
	NodesDone     int64 `json:"nodes_done"`
	Violations    int64 `json:"violations"`
	Failures      int64 `json:"failures"`
	Faults        int64 `json:"faults"`
	Discarded     int64 `json:"discarded"`
	Duplicates    int64 `json:"duplicates"`
	Stalls        int64 `json:"stalls"`
	StoppedByRule bool  `json:"stopped_by_rule"`

	RunWallS      float64 `json:"run_wall_s"`      // tft.RunExperiment
	PipelineWallS float64 `json:"pipeline_wall_s"` // + WriteDataset(io.Discard) + Tables()
	TablesS       float64 `json:"tables_s"`
	CPUS          float64 `json:"cpu_s"`
	Mallocs       uint64  `json:"mallocs"`
	AllocBytes    uint64  `json:"alloc_bytes"`
	PeakLiveBytes uint64  `json:"peak_live_bytes"`

	// KernelS is the host-speed reading beside this process, as in
	// setupResult.
	KernelS float64 `json:"kernel_s,omitempty"`

	DatasetRows  int     `json:"dataset_rows"`
	DatasetBytes int     `json:"dataset_bytes"`
	DatasetWrite float64 `json:"dataset_write_s"`
	DatasetRead  float64 `json:"dataset_read_s"`

	// Problems lists every failed correctness check; empty means correct.
	Problems []string `json:"problems,omitempty"`
}

func (c *crawlResult) manifest(m *progress.RunManifest) {
	c.Sessions, c.UniqueNodes, c.NodesDone = m.Sessions, m.UniqueNodes, m.NodesDone
	c.Violations, c.Failures, c.Faults = m.Violations, m.Failures, m.Faults
	c.Discarded, c.Duplicates, c.Stalls = m.Discarded, m.Duplicates, m.Stalls
	c.StoppedByRule = m.StoppedByRule
}

// unreconciled is how many sessions the manifest cannot account for: the
// contract's "failed" operations. Simulated failures and injected faults
// are the workload (what the paper measured), not a failure of the program;
// a session that vanished from the books is.
func (c *crawlResult) unreconciled() int64 {
	d := c.Sessions - (c.NodesDone + c.Failures + c.Faults + c.Discarded + c.Duplicates)
	if d < 0 {
		d = -d
	}
	return d + c.Stalls
}

// endToEnd derives the per-session metrics of one crawl, the three times at
// reference host speed.
func (c *crawlResult) endToEnd() map[string]float64 {
	s := float64(c.Sessions)
	ref := atReferenceSpeed(c.KernelS)
	return map[string]float64{
		"sessions_per_s":       s / (c.RunWallS * ref),
		"node_us":              c.PipelineWallS * ref * 1e6 / float64(c.NodesDone),
		"cpu_us_per_session":   c.CPUS * ref * 1e6 / s,
		"allocs_per_session":   float64(c.Mallocs) / s,
		"alloc_kb_per_session": float64(c.AllocBytes) / 1024 / s,
		"peak_live_mb":         float64(c.PeakLiveBytes) / (1 << 20),
		"completed_share":      1 - float64(c.Failures+c.Faults)/s,
	}
}

// measureCrawl runs the workload's crawl once in this process and measures
// the region a user waits for: RunExperiment (world build, lazy node
// materialisation and the stop rule included: users pay them on every
// run), WriteDataset and Tables. The caller makes the process fresh. rec is
// nil on the untraced pass; on the traced pass it wraps the same calls in
// stage spans under parent. The read-back for the correctness check happens
// after the timed region, and its dataset is returned for the layer drives.
func measureCrawl(wl workload, seed uint64, scale float64, rec *recorder, parent int) (*crawlResult, *loaded, error) {
	res := &crawlResult{Workload: wl.Name, Seed: seed, Scale: scale}
	opts := tft.Options{Seed: seed, Scale: scale, Workers: workers, Chaos: wl.Chaos}

	runtime.GC()
	sampler := startHeapSampler()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t0 := time.Now()

	id := rec.start(parent, "tft.run_experiment")
	run, err := tft.RunExperiment(context.Background(), wl.Experiment, opts)
	rec.end(id)
	if err != nil {
		sampler.finish()
		return nil, nil, fmt.Errorf("%s: %w", wl.Name, err)
	}
	t1 := time.Now()
	id = rec.start(parent, "run.write_dataset")
	err = run.WriteDataset(io.Discard)
	rec.end(id)
	if err != nil {
		sampler.finish()
		return nil, nil, fmt.Errorf("%s: writing dataset: %w", wl.Name, err)
	}
	t2 := time.Now()
	id = rec.start(parent, "run.tables")
	tables := run.Tables()
	rec.end(id)
	t3 := time.Now()

	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	res.PeakLiveBytes = sampler.finish() // run is still referenced below
	res.RunWallS = t1.Sub(t0).Seconds()
	res.PipelineWallS = t3.Sub(t0).Seconds()
	res.TablesS = t3.Sub(t2).Seconds()
	res.CPUS = cpu1 - cpu0
	res.Mallocs = m1.Mallocs - m0.Mallocs
	res.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.manifest(run.Manifest())

	// Round trip: what WriteDataset emits must read back to the same nodes.
	var buf bytes.Buffer
	id = rec.start(parent, "dataset.write")
	w0 := time.Now()
	err = run.WriteDataset(&buf)
	res.DatasetWrite = time.Since(w0).Seconds()
	rec.end(id)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: writing dataset: %w", wl.Name, err)
	}
	res.DatasetBytes = buf.Len()
	id = rec.start(parent, "dataset.read")
	r0 := time.Now()
	ds, err := experimentByName(wl.Experiment).load(&buf)
	res.DatasetRead = time.Since(r0).Seconds()
	rec.end(id)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: reading dataset back: %w", wl.Name, err)
	}
	res.DatasetRows = ds.rows
	res.Problems = checkCrawl(wl, res, len(tables))
	return res, ds, nil
}

// tinyScale is where the violation band stops being checked from above.
// Below 4 % scale the named violator groups are floored at three nodes, which
// inflates incidence, and report.go's own shape checks widen their upper
// bounds threefold; the catalogue's VioHi already carries that factor for the
// workloads that run below 4 %. Below 1 % (the smoke test) the floor
// dominates and only the lower bound and a sanity ceiling are checked.
const tinyScale = 0.01

// checkCrawl is the correctness check every run must pass.
func checkCrawl(wl workload, c *crawlResult, tables int) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if !c.StoppedByRule {
		fail("crawl did not end by the paper's stop rule")
	}
	if d := c.Sessions - (c.NodesDone + c.Failures + c.Faults + c.Discarded + c.Duplicates); d != 0 {
		fail("manifest does not reconcile: sessions %d != done %d + failures %d + faults %d + discarded %d + duplicates %d (off by %d)",
			c.Sessions, c.NodesDone, c.Failures, c.Faults, c.Discarded, c.Duplicates, d)
	}
	if c.Stalls != 0 {
		fail("stall watchdog fired %d times", c.Stalls)
	}
	if int64(c.DatasetRows) != c.NodesDone {
		fail("dataset round trip: wrote %d nodes, read back %d", c.NodesDone, c.DatasetRows)
	}
	if tables == 0 {
		fail("Run.Tables() rendered nothing")
	}
	if c.NodesDone == 0 || c.Sessions == 0 {
		fail("empty crawl: %d sessions, %d nodes", c.Sessions, c.NodesDone)
		return bad
	}
	share := float64(c.Violations) / float64(c.NodesDone)
	hi := wl.VioHi
	if c.Scale < tinyScale {
		hi = 0.5
	}
	if share < wl.VioLo || share > hi {
		fail("violation share %.4f outside the calibrated band [%.4f, %.4f]", share, wl.VioLo, hi)
	}
	if wl.Chaos != "" && c.Faults == 0 {
		fail("chaos profile %q injected no client-visible fault", wl.Chaos)
	}
	if wl.Chaos == "" && c.Faults != 0 {
		fail("fault-free workload lost %d probes to transport faults", c.Faults)
	}
	return bad
}
