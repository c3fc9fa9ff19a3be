package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/tftproject/tft/internal/simnet"
)

func TestPickPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10_000, 99.9}, // exactly ten beyond p99.9
		{9_999, 99},
		{2_000, 99}, // the layer drives' K: twenty beyond p99
		{999, 95},
		{100, 90}, // exactly ten beyond p90
		{99, 75},
		{40, 75},
		{39, 50},
		{1, 50},
	} {
		if got := pickPercentile(tc.n); got != tc.want {
			t.Errorf("pickPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestSummariseReportsCountAndPercentile(t *testing.T) {
	ns := make([]float64, 200)
	classes := make([]int, len(ns))
	for i := range ns {
		ns[i] = float64(len(ns) - i) // 200 down to 1: summarise must sort a copy
		classes[i] = i % 2
	}
	got := summarise(ns, classes, 2)
	if got.N != 200 || got.HiPct != 95 {
		t.Fatalf("N = %d, HiPct = %g; want 200 samples and p95 (ten beyond it)", got.N, got.HiPct)
	}
	if got.P50 != 100 || got.Hi != 190 {
		t.Errorf("P50 = %g, Hi = %g; want 100 and 190", got.P50, got.Hi)
	}
	if ns[0] != 200 {
		t.Error("summarise reordered its input")
	}
	// Even values are class 0 (i even -> 200-i even), odd values class 1.
	if got.class(0) != 100 || got.class(1) != 99 {
		t.Errorf("class p50s = %g, %g; want 100, 99", got.class(0), got.class(1))
	}
	if unclassed := summarise(ns, nil, 0); unclassed.class(3) != unclassed.P50 {
		t.Error("class() of an unclassed timing must fall back to the overall p50")
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, %g; want 2.75, 5.5, 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 = quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of three = %g, %g, %g; want 1, 2, 3", q1, q2, q3)
	}
	if got := spreadShare([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %g, want 0", got)
	}
}

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "stage", Start: 0, End: 100},
		// Two workers under one stage, overlapping on [30, 50).
		{ID: 2, Parent: 1, Name: "worker-a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "worker-b", Start: 30, End: 70},
		// Sticks out of the parent: only [90, 100) counts.
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 130},
		// Grandchild: comes off worker-a, not off the stage.
		{ID: 5, Parent: 2, Name: "call", Start: 20, End: 45},
		// Never closed: no self time, and it covers nothing.
		{ID: 6, Parent: 1, Name: "open", Start: 75, End: -1},
	}
	self := selfTimes(spans)
	// Stage: 100 - union([10,70), [90,100)) = 100 - 70.
	if self[1] != 30 {
		t.Errorf("stage self = %d, want 30 (overlap subtracted once, overhang clipped)", self[1])
	}
	if self[2] != 15 {
		t.Errorf("worker-a self = %d, want 40 - 25", self[2])
	}
	if self[3] != 40 || self[5] != 25 {
		t.Errorf("leaf self times = %d, %d; want their durations 40, 25", self[3], self[5])
	}
	if _, ok := self[6]; ok {
		t.Error("a span that never closed has no self time")
	}
}

func TestRecorderNilRecordsNothing(t *testing.T) {
	var rec *recorder
	id := rec.start(0, "x")
	rec.end(id)
	if id != 0 || rec.snapshot() != nil {
		t.Error("the untraced pass must not record")
	}
	rec = newRecorder("t")
	a := rec.start(0, "a")
	b := rec.start(a, "b")
	rec.end(b)
	rec.end(a)
	var out bytes.Buffer
	if err := rec.write(&out); err != nil {
		t.Fatal(err)
	}
	var f spanFile
	if err := json.Unmarshal(out.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if f.Trace != "t" || len(f.Spans) != 2 || f.Spans[1].Parent != a || f.Spans[1].End < f.Spans[1].Start {
		t.Errorf("span file = %+v", f)
	}
}

func TestManifestReconciliation(t *testing.T) {
	wl, _ := workloadByName("dns_crawl")
	ok := crawlResult{Scale: 0.04, Sessions: 100, UniqueNodes: 40, NodesDone: 40, Violations: 2,
		Failures: 3, Discarded: 1, Duplicates: 56, StoppedByRule: true, DatasetRows: 40}
	if n := ok.unreconciled(); n != 0 {
		t.Errorf("unreconciled = %d, want 0", n)
	}
	if bad := checkCrawl(wl, &ok, 3); len(bad) != 0 {
		t.Errorf("a reconciled crawl failed its check: %v", bad)
	}

	for name, tc := range map[string]struct {
		mutate func(c *crawlResult)
		failed int64
		want   string
	}{
		"lost session": {func(c *crawlResult) { c.Duplicates-- }, 1, "does not reconcile"},
		"double count": {func(c *crawlResult) { c.NodesDone += 2; c.DatasetRows += 2 }, 2, "does not reconcile"},
		"stall":        {func(c *crawlResult) { c.Stalls = 1 }, 1, "stall watchdog"},
		"budget stop":  {func(c *crawlResult) { c.StoppedByRule = false }, 0, "stop rule"},
		"round trip":   {func(c *crawlResult) { c.DatasetRows = 39 }, 0, "round trip"},
		"band":         {func(c *crawlResult) { c.Violations = 30 }, 0, "calibrated band"},
		"fault-free":   {func(c *crawlResult) { c.Faults = 1; c.Duplicates-- }, 0, "transport faults"},
	} {
		c := ok
		tc.mutate(&c)
		if got := c.unreconciled(); got != tc.failed {
			t.Errorf("%s: unreconciled = %d, want %d", name, got, tc.failed)
		}
		bad := strings.Join(checkCrawl(wl, &c, 3), "; ")
		if !strings.Contains(bad, tc.want) {
			t.Errorf("%s: problems %q, want one mentioning %q", name, bad, tc.want)
		}
	}
	if bad := strings.Join(checkCrawl(wl, &ok, 0), "; "); !strings.Contains(bad, "rendered nothing") {
		t.Errorf("a run without tables must fail: %q", bad)
	}

	lossy, _ := workloadByName("dns_lossy")
	c := ok
	if bad := strings.Join(checkCrawl(lossy, &c, 3), "; "); !strings.Contains(bad, "injected no") {
		t.Errorf("a chaos workload without one fault must fail: %q", bad)
	}
}

func TestJudgeAppliesEachMetricsOwnBound(t *testing.T) {
	rate := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	cost := metricDef{Name: "cost", Better: "lower", Bound: 0.10}
	tight := metricDef{Name: "allocs", Better: "lower", Bound: 0.02}
	// completed_share is failed_share turned around: a bound that is a share
	// of a value near 1 is an absolute bound in percentage points on
	// failed_share, 0.3 pp here.
	completed := endToEnd[len(endToEnd)-1]
	if completed.Name != "completed_share" || completed.Bound != 0.003 || completed.Better != "higher" {
		t.Fatalf("completed_share = %+v; want higher-is-better with a 0.3 %% bound", completed)
	}
	for name, tc := range map[string]struct {
		def        metricDef
		base, cand []float64
		want       verdict
	}{
		"rate within bound":        {rate, []float64{1000, 1010, 990}, []float64{930, 940, 935}, verdictOK},
		"rate breach":              {rate, []float64{1000, 1010, 990}, []float64{880, 890, 885}, verdictBreach},
		"higher is never a breach": {rate, []float64{1000, 1010, 990}, []float64{1500, 1510, 1490}, verdictOK},
		"cost breach":              {cost, []float64{150, 151, 149}, []float64{170, 171, 169}, verdictBreach},
		"cost fell":                {cost, []float64{150, 151, 149}, []float64{100, 101, 99}, verdictOK},
		"tight bound breach":       {tight, []float64{190, 190.2, 189.9}, []float64{195, 195.1, 194.9}, verdictBreach},
		"tight bound held":         {tight, []float64{190, 190.2, 189.9}, []float64{192, 192.1, 191.9}, verdictOK},
		"0.25 pp more failures":    {completed, []float64{1, 1, 1}, []float64{0.9975, 0.9975, 0.9975}, verdictOK},
		"0.4 pp more failures":     {completed, []float64{1, 1, 1}, []float64{0.996, 0.996, 0.996}, verdictBreach},
		"lossy, 0.2 pp more":       {completed, []float64{0.976, 0.9761, 0.9759}, []float64{0.974, 0.9741, 0.9739}, verdictOK},
		"lossy, 0.5 pp more":       {completed, []float64{0.976, 0.9761, 0.9759}, []float64{0.971, 0.9711, 0.9709}, verdictBreach},
		"noisy and worse":          {rate, []float64{1000, 1300, 800}, []float64{900, 1200, 700}, verdictUnresolved},
		"noisy but all better":     {rate, []float64{1000, 1300, 800}, []float64{1400, 1900, 1350}, verdictOK},
		"missing side":             {rate, nil, []float64{1}, verdictMissing},
	} {
		if got, worse := judge(tc.def, tc.base, tc.cand); got != tc.want {
			t.Errorf("%s: verdict %s (worse by %.4f), want %s", name, got, worse, tc.want)
		}
	}
}

// TestTimesAreReportedAtReferenceSpeed: the same crawl measured on a host
// that the kernel found half as slow again reports the same three times, and
// leaves the counts alone.
func TestTimesAreReportedAtReferenceSpeed(t *testing.T) {
	quiet := crawlResult{Sessions: 1000, NodesDone: 400, RunWallS: 2, PipelineWallS: 2.2, CPUS: 3,
		Mallocs: 190_000, AllocBytes: 19 << 20, PeakLiveBytes: 200 << 20, KernelS: refKernelSeconds}
	noisy := quiet
	noisy.RunWallS, noisy.PipelineWallS, noisy.CPUS, noisy.KernelS = 3, 3.3, 4.5, 1.5*refKernelSeconds
	q, n := quiet.endToEnd(), noisy.endToEnd()
	for _, def := range endToEnd {
		if def.Name == "setup_s" {
			continue
		}
		if d := n[def.Name]/q[def.Name] - 1; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s: %g on the quiet host, %g on the noisy one", def.Name, q[def.Name], n[def.Name])
		}
	}
	if q["sessions_per_s"] != 500 || q["cpu_us_per_session"] != 3000 {
		t.Errorf("at the reference reading times stay as measured: %v", q)
	}
	unread := quiet
	unread.KernelS = 0
	if u := unread.endToEnd(); u["sessions_per_s"] != 500 {
		t.Errorf("without a reading times stay as measured: %v", u)
	}

	rec := &runRecord{Workload: "dns_crawl",
		Setups: []*setupResult{{Seconds: []float64{0.04, 0.05, 0.06}, KernelS: 2 * refKernelSeconds}},
		Crawls: []*crawlResult{&noisy}}
	rec.fillEndToEnd()
	if got := rec.Metrics["setup_s"].Value; got != 0.025 {
		t.Errorf("setup_s = %g, want the median 0.05 s halved", got)
	}
	if d := rec.HostSpeedIndex - 1.5; d > 1e-9 || d < -1e-9 {
		t.Errorf("host speed index = %g, want 1.5", rec.HostSpeedIndex)
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	run := runRecord{Workload: "dns_crawl", Metrics: map[string]metricValue{
		"sessions_per_s": {Value: 1000, Unit: "1/s", Samples: []float64{1000, 1001, 999}}}}
	slow := run
	slow.Metrics = map[string]metricValue{"sessions_per_s": {Value: 700, Unit: "1/s", Samples: []float64{700, 701, 699}}}
	here := hostFingerprint()
	there := here
	there.CPUModel += " (another)"

	var out bytes.Buffer
	if _, _, err := compareSets(&out, &setFile{Fingerprint: here, Runs: []runRecord{run}},
		&setFile{Fingerprint: there, Runs: []runRecord{run}}); err == nil {
		t.Error("sets from two hosts compared")
	}
	breaches, unresolved, err := compareSets(&out, &setFile{Fingerprint: here, Runs: []runRecord{run}},
		&setFile{Fingerprint: here, Runs: []runRecord{slow}})
	if err != nil || breaches != 1 || unresolved != 0 {
		t.Errorf("30%% slower: breaches %d, unresolved %d, err %v; want one breach", breaches, unresolved, err)
	}
	if !strings.Contains(out.String(), "BREACH") {
		t.Errorf("no BREACH row in:\n%s", out.String())
	}

	// The same through the command line: exit 1 on a breach, 2 when a file
	// is missing.
	dir := t.TempDir()
	base, cand := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := appendSet(base, here, []runRecord{run}); err != nil {
		t.Fatal(err)
	}
	if err := appendSet(cand, here, []runRecord{slow}); err != nil {
		t.Fatal(err)
	}
	if err := appendSet(cand, there, []runRecord{slow}); err == nil {
		t.Error("appended another host's runs to a set file")
	}
	var stdout, stderr bytes.Buffer
	if code := runMain([]string{"-compare", base, cand}, &stdout, &stderr); code != 1 {
		t.Errorf("-compare with a breach exited %d, want 1; stderr: %s", code, stderr.String())
	}
	if code := runMain([]string{"-compare", base, base}, &stdout, &stderr); code != 0 {
		t.Errorf("-compare of a file with itself exited %d, want 0", code)
	}
	if code := runMain([]string{"-compare", base, filepath.Join(dir, "none.json")}, &stdout, &stderr); code != 2 {
		t.Errorf("-compare with a missing file exited %d, want 2", code)
	}
}

func TestUsageErrorsListValidNames(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := runMain([]string{"-workload", "smtp_crawl"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown workload exited %d, want 2", code)
	}
	for _, wl := range workloads {
		if !strings.Contains(stderr.String(), wl.Name) {
			t.Errorf("usage error does not list %s:\n%s", wl.Name, stderr.String())
		}
	}
	stderr.Reset()
	if code := runMain([]string{"-workload", "dns_crawl", "-trace", "2"}, &stdout, &stderr); code != 2 ||
		!strings.Contains(stderr.String(), "valid: 0, 1") {
		t.Errorf("unknown -trace value: exit %d, stderr %q", code, stderr.String())
	}
	if code := runMain([]string{"-compare", "only-one.json"}, &stdout, &stderr); code != 2 {
		t.Errorf("-compare with one file exited %d, want 2", code)
	}
}

func TestListNamesEveryMetric(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := runMain([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d: %s", code, stderr.String())
	}
	for _, wl := range workloads {
		if !strings.Contains(stdout.String(), wl.Name) {
			t.Errorf("-list omits workload %s", wl.Name)
		}
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range defs {
			if !strings.Contains(stdout.String(), "  "+m.Name+" ") {
				t.Errorf("-list omits metric %s", m.Name)
			}
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps the contract file at the
// repository root and the catalogue in this package saying the same thing.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "scripts/tftbench" {
		t.Errorf("paths = %v", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(b.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if b.Workloads[i].Name != wl.Name || b.Workloads[i].Why != wl.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the catalogue %s: %s", i, b.Workloads[i], wl.Name, wl.Why)
		}
		if len(wl.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", wl.Name, len(wl.Why))
		}
	}
	same := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the catalogue %s %s %s", kind, i, g, m.Name, m.Unit, m.Better)
			}
			if bounded && (g.Bound == nil || *g.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v in BENCHMARK.json, %g in the catalogue (contract: 0 < bound <= 0.25)", m.Name, g.Bound, m.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: a per-layer metric carries no bound", m.Name)
			}
			if len(m.Name) > 64 || len(m.Unit) > 16 {
				t.Errorf("%s (%s): name or unit too long for the contract", m.Name, m.Unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd, true)
	same("per_layer", b.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}

// smokeLayers shrinks every dimension of the layer drives.
var smokeLayers = layerConfig{K: 40, CodecRounds: 1, PipeFor: 5 * time.Millisecond, TunnelBytes: 64 << 10, TunnelReps: 2, Timers: 500}

// TestSmokeWholeCodePath runs dns_crawl at Scale 0.002 through both passes:
// the crawl with its correctness check, the traced pass with every layer
// drive, the budget table, the span file and the report. Safe under -short.
func TestSmokeWholeCodePath(t *testing.T) {
	const scale = 0.002
	wl, err := workloadByName("dns_crawl")
	if err != nil {
		t.Fatal(err)
	}
	if k := measureHostSpeed(); k <= 0 {
		t.Errorf("host-speed kernel took %g s", k)
	}
	setup, err := measureSetup(wl, defaultSeed, scale, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(setup.Seconds) < 5 || setup.Nodes == 0 {
		t.Errorf("set-up: %d builds of a %d-node world; want at least five of a populated one", len(setup.Seconds), setup.Nodes)
	}
	crawl, ds, err := measureCrawl(wl, defaultSeed, scale, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(crawl.Problems) != 0 {
		t.Errorf("untraced crawl failed its check: %v", crawl.Problems)
	}
	if int64(ds.rows) != crawl.NodesDone || len(ds.nodes) != ds.rows {
		t.Errorf("read back %d rows (%d sampled nodes) of %d nodes", ds.rows, len(ds.nodes), crawl.NodesDone)
	}
	rec := &runRecord{Workload: wl.Name, Seed: defaultSeed, Scale: scale, Setups: []*setupResult{&setup}, Crawls: []*crawlResult{crawl}}
	rec.fillEndToEnd()
	if !rec.Correct {
		t.Errorf("end-to-end record: %v", rec.Problems)
	}
	for _, def := range endToEnd {
		if v := rec.Metrics[def.Name]; v.Value <= 0 || v.Unit != def.Unit {
			t.Errorf("end-to-end metric %s = %+v", def.Name, v)
		}
	}

	var spans bytes.Buffer
	layers, err := tracedRun(wl, defaultSeed, scale, smokeLayers, &spans)
	if err != nil {
		t.Fatal(err)
	}
	if len(layers.Problems) != 0 {
		t.Errorf("traced pass: %v", layers.Problems)
	}
	for _, def := range perLayer {
		if _, ok := layers.Metrics[def.Name]; !ok {
			t.Errorf("per-layer metric %s was not measured", def.Name)
		}
	}
	for _, name := range []string{"simnet.pipe_mb_s_1k", "simnet.pipe_mb_s_64k", "exit.tunnel_mb_s", "client.session_us", "simnet.timer_ns"} {
		if layers.Metrics[name] <= 0 {
			t.Errorf("%s = %g, want a positive reading", name, layers.Metrics[name])
		}
	}
	if len(layers.Budget.Rows) == 0 || layers.Budget.SessionUs <= 0 {
		t.Errorf("empty budget table: %+v", layers.Budget)
	}
	var f spanFile
	if err := json.Unmarshal(spans.Bytes(), &f); err != nil {
		t.Fatalf("span file: %v", err)
	}
	names := map[string]bool{}
	for _, s := range f.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"workload/dns_crawl", "tft.run_experiment", "run.write_dataset", "run.tables",
		"drive/client.session", "client.session", "client.get", "drive/simnet.pipe_mb_s_64k"} {
		if !names[want] {
			t.Errorf("no %q span among %d recorded", want, len(f.Spans))
		}
	}

	traced := &runRecord{Workload: wl.Name, Trace: 1, Seed: defaultSeed, Scale: scale, Layers: layers}
	traced.fillPerLayer()
	var out bytes.Buffer
	rec.print(&out)
	traced.print(&out)
	for _, want := range []string{"sessions_per_s", "client.session_us", "per-layer budget", "correctness check: passed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q", want)
		}
	}
	line, err := json.Marshal(traced.contract())
	if err != nil {
		t.Fatal(err)
	}
	var contract map[string]json.RawMessage
	if err := json.Unmarshal(line, &contract); err != nil || len(contract) != 4 {
		t.Errorf("contract line has keys %v (err %v); want exactly correct, attempted, failed, metrics", contract, err)
	}
}

// TestCorruptedPayloadFailsTheMetric: with a plane armed that mangles every
// stream, the tunnel throughput drive must report its metric as failed, not
// post a number. This is the ring-wraparound/growth guard: whatever alters
// bytes between sender and receiver fails the SHA-256 comparison.
func TestCorruptedPayloadFailsTheMetric(t *testing.T) {
	const scale = 0.002
	wl, err := workloadByName("dns_crawl")
	if err != nil {
		t.Fatal(err)
	}
	_, ds, err := measureCrawl(wl, defaultSeed, scale, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	exp := experimentByName(wl.Experiment)
	w, tracer, err := newDriveWorld(wl, exp, defaultSeed, scale)
	if err != nil {
		t.Fatal(err)
	}
	d := &driver{ctx: context.Background(), seed: defaultSeed, cfg: smokeLayers, w: w, exp: exp, tracer: tracer}
	entry := d.installTunnelEntry()
	if mbps, ok, err := d.driveTunnelThroughput(ds.nodes, entry); err != nil || !ok || mbps <= 0 {
		t.Fatalf("clean links: %g MB/s, ok %v, err %v", mbps, ok, err)
	}
	w.Fabric.Faults = simnet.NewFaultPlane(simnet.FaultProfile{Name: "corrupt-all",
		Specs: []simnet.FaultSpec{{Kind: simnet.FaultCorrupt, Prob: 1, Every: 4096}}}, defaultSeed, w.Clock)
	if mbps, ok, err := d.driveTunnelThroughput(ds.nodes, entry); err != nil || ok {
		t.Errorf("every stream corrupted: %g MB/s reported as ok (err %v); the hash check must fail the metric", mbps, err)
	}
}
