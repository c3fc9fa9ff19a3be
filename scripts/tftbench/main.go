// Command tftbench is the repository's benchmark: five crawl workloads,
// eight end-to-end metrics measured with the benchmark's own spans off, and
// a per-layer cost budget measured from outside, through exported calls
// only. BENCHMARK.json at the repository root names it; README.md in this
// directory says why each workload exists and how to read the output.
//
// Usage:
//
//	tftbench                      one set: every workload, both passes
//	tftbench -list                every workload and metric by name
//	tftbench -workload W -trace 0 one run, end-to-end metrics (what the driver calls)
//	tftbench -workload W -trace 1 one run, per-layer metrics and the budget table
//	tftbench -compare a.json b.json
//
// A run's last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Exit status is 0 when every
// correctness check passed (and, for -compare, no bound was breached), 1
// otherwise, and 2 on usage errors.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tftbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print every workload, end-to-end metric and per-layer metric and exit")
	workloadName := fs.String("workload", "", "run one workload (default: all five)")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; the program under test receives only tft.Options built from it")
	seconds := fs.Int("seconds", defaultSeconds, "measuring window: -trace 0 times fresh-process crawls until it is full, -trace 1 sizes the layer drives for it")
	trace := fs.String("trace", "", "0 = untraced end-to-end pass, 1 = traced per-layer pass (default: both)")
	out := fs.String("out", "", "append the runs to this set file (JSON, with the host fingerprint) for -compare")
	compare := fs.Bool("compare", false, "compare two set files: tftbench -compare base.json candidate.json")
	child := fs.String("child", "", "internal: measure in this fresh process what the JSON spec says")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: tftbench [flags]   |   tftbench -compare base.json candidate.json")
		fs.PrintDefaults()
		fmt.Fprintln(stderr, "\nworkloads:")
		for _, wl := range workloads {
			fmt.Fprintf(stderr, "  %-13s %s\n", wl.Name, wl.Why)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(err error) int {
		fmt.Fprintln(stderr, "tftbench:", err)
		fs.Usage()
		return 2
	}
	if *child != "" {
		return childMain(*child, stdout, stderr)
	}
	if *list {
		printList(stdout)
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			return usage(fmt.Errorf("-compare takes two set files, got %d argument(s)", fs.NArg()))
		}
		return compareMain(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 {
		return usage(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	selected := workloads
	if *workloadName != "" {
		wl, err := workloadByName(*workloadName)
		if err != nil {
			return usage(err)
		}
		selected = []workload{wl}
	}
	var passes []int
	switch *trace {
	case "":
		passes = []int{0, 1}
	case "0":
		passes = []int{0}
	case "1":
		passes = []int{1}
	default:
		return usage(fmt.Errorf("unknown -trace value %q (valid: 0, 1)", *trace))
	}
	if *seconds < 1 {
		return usage(fmt.Errorf("-seconds must be at least 1, got %d", *seconds))
	}

	p := &parent{seed: *seed, seconds: float64(*seconds), stderr: stderr}
	records, err := p.runSet(selected, passes, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "tftbench:", err)
		return 1
	}
	if *out != "" {
		if err := appendSet(*out, hostFingerprint(), records); err != nil {
			fmt.Fprintln(stderr, "tftbench:", err)
			return 1
		}
	}
	status := 0
	for i := range records {
		if !records[i].Correct {
			status = 1
		}
	}
	if len(records) == 1 {
		// The contract's result line: last on standard output.
		line, err := json.Marshal(records[0].contract())
		if err != nil {
			fmt.Fprintln(stderr, "tftbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	return status
}

func compareMain(basePath, candPath string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tftbench:", err)
		return 2
	}
	base, err := readSet(basePath)
	if err != nil {
		return fail(err)
	}
	cand, err := readSet(candPath)
	if err != nil {
		return fail(err)
	}
	breaches, _, err := compareSets(stdout, base, cand)
	if err != nil {
		return fail(err)
	}
	if breaches > 0 {
		return 1
	}
	return 0
}

// childSpec tells a fresh process what to measure. Every measurement runs
// in its own process so that pools, the resolve cache, lazy materialisation
// and the heap start cold and identical; the parent only orchestrates.
type childSpec struct {
	Kind     string  `json:"kind"` // hostspeed | setup | crawl | traced
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds,omitempty"` // set-up: time to spend building; traced: the window the drives are sized for
	SpanPath string  `json:"span_path,omitempty"`
}

// childMain measures and prints the result as one JSON line.
func childMain(specJSON string, stdout, stderr io.Writer) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(stderr, "tftbench: bad -child spec:", err)
		return 2
	}
	var result any
	var err error
	if spec.Kind == "hostspeed" {
		result = measureHostSpeed()
	} else {
		var wl workload
		if wl, err = workloadByName(spec.Workload); err != nil {
			fmt.Fprintln(stderr, "tftbench:", err)
			return 2
		}
		switch spec.Kind {
		case "setup":
			result, err = measureSetup(wl, spec.Seed, wl.scale(), time.Duration(spec.Seconds*float64(time.Second)))
		case "crawl":
			result, _, err = measureCrawl(wl, spec.Seed, wl.scale(), nil, 0)
		case "traced":
			result, err = tracedToFile(wl, spec)
		default:
			err = fmt.Errorf("unknown child kind %q", spec.Kind)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "tftbench:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(result); err != nil {
		fmt.Fprintln(stderr, "tftbench:", err)
		return 1
	}
	return 0
}

func tracedToFile(wl workload, spec childSpec) (*layerResult, error) {
	if err := os.MkdirAll(filepath.Dir(spec.SpanPath), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(spec.SpanPath)
	if err != nil {
		return nil, err
	}
	res, err := tracedRun(wl, spec.Seed, wl.scale(), layersFor(spec.Seconds), f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return res, err
}

// spanDir is where traced runs leave their span files, relative to the
// working directory (.gitignore names it).
const spanDir = ".tftbench"

// parent orchestrates fresh measuring processes.
type parent struct {
	seed    uint64
	seconds float64 // the measuring window
	stderr  io.Writer
}

// spawn re-executes this binary with a child spec, waits for it to end and
// decodes its result line.
func (p *parent) spawn(spec childSpec, result any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	arg, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "-child", string(arg))
	cmd.Stderr = p.stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s child %s: %w", spec.Kind, spec.Workload, err)
	}
	if err := json.Unmarshal(bytes.TrimSpace(outBytes), result); err != nil {
		return fmt.Errorf("%s child %s printed no result: %w", spec.Kind, spec.Workload, err)
	}
	return nil
}

// runSet measures the selected workloads and passes, then prints each
// record.
func (p *parent) runSet(selected []workload, passes []int, stdout io.Writer) ([]runRecord, error) {
	var records []runRecord
	printInteractions(stdout)
	for _, wl := range selected {
		for _, pass := range passes {
			measure := p.untraced
			if pass == 1 {
				measure = p.traced
			}
			rec, err := measure(wl)
			if err != nil {
				return nil, err
			}
			records = append(records, *rec)
		}
	}
	crossCheckLossy(records)
	for i := range records {
		records[i].print(stdout)
	}
	return records, nil
}

// hostSpeed takes one host-speed reading in a fresh process.
func (p *parent) hostSpeed() (float64, error) {
	var k float64
	if err := p.spawn(childSpec{Kind: "hostspeed"}, &k); err != nil {
		return 0, err
	}
	if k <= 0 {
		return 0, fmt.Errorf("host-speed kernel reported %g s", k)
	}
	return k, nil
}

// untraced is the end-to-end pass: a fresh set-up process and a fresh crawl
// process, again and again until the measuring window is full, so the set-up
// builds are spread over the whole run rather than its first second. A
// host-speed reading stands before the first pair and after every pair;
// each pair's times are put at reference speed with the mean of the two
// readings that bracket it (hostspeed.go says why). Every metric is the
// median over the processes.
func (p *parent) untraced(wl workload) (*runRecord, error) {
	rec := &runRecord{Workload: wl.Name, Trace: 0, Seed: p.seed, Scale: wl.scale()}
	before, err := p.hostSpeed()
	if err != nil {
		return nil, err
	}
	var timed float64
	for timed < p.seconds {
		s, c := &setupResult{}, &crawlResult{}
		if err := p.spawn(childSpec{Kind: "setup", Workload: wl.Name, Seed: p.seed,
			Seconds: p.seconds / 30}, s); err != nil {
			return nil, err
		}
		if err := p.spawn(childSpec{Kind: "crawl", Workload: wl.Name, Seed: p.seed}, c); err != nil {
			return nil, err
		}
		after, err := p.hostSpeed()
		if err != nil {
			return nil, err
		}
		s.KernelS, c.KernelS = (before+after)/2, (before+after)/2
		before = after
		rec.Setups = append(rec.Setups, s)
		rec.Crawls = append(rec.Crawls, c)
		timed += c.PipelineWallS
	}
	rec.fillEndToEnd()
	return rec, nil
}

// fillEndToEnd reduces the set-up and crawl processes to the record's
// metrics, counts and verdict.
func (r *runRecord) fillEndToEnd() {
	samples := map[string][]float64{}
	var sessions, speeds []float64
	for _, s := range r.Setups {
		for _, sec := range s.Seconds {
			samples["setup_s"] = append(samples["setup_s"], sec*atReferenceSpeed(s.KernelS))
		}
	}
	for _, c := range r.Crawls {
		for name, v := range c.endToEnd() {
			samples[name] = append(samples[name], v)
		}
		sessions = append(sessions, float64(c.Sessions))
		speeds = append(speeds, c.KernelS/refKernelSeconds)
		r.Failed += c.unreconciled()
		r.Problems = append(r.Problems, c.Problems...)
	}
	r.Attempted = int64(median(sessions))
	r.HostSpeedIndex = median(speeds)
	r.Metrics = make(map[string]metricValue, len(endToEnd))
	for _, def := range endToEnd {
		v := median(samples[def.Name])
		if len(samples[def.Name]) == 0 || math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
			r.Problems = append(r.Problems, fmt.Sprintf("end-to-end metric %s has no usable value", def.Name))
		}
		r.Metrics[def.Name] = metricValue{Value: v, Unit: def.Unit, Samples: samples[def.Name]}
	}
	r.Correct = len(r.Problems) == 0
}

// traced is the per-layer pass: one untraced crawl process, then the traced
// process, with host-speed readings before, between and after. The untraced
// crawl is there for one number, trace.overhead_share: the traced
// RunExperiment wall over the untraced one, each at reference speed.
func (p *parent) traced(wl workload) (*runRecord, error) {
	h0, err := p.hostSpeed()
	if err != nil {
		return nil, err
	}
	plain := &crawlResult{}
	if err := p.spawn(childSpec{Kind: "crawl", Workload: wl.Name, Seed: p.seed}, plain); err != nil {
		return nil, err
	}
	h1, err := p.hostSpeed()
	if err != nil {
		return nil, err
	}
	rec := &runRecord{Workload: wl.Name, Trace: 1, Seed: p.seed, Scale: wl.scale(), Layers: &layerResult{}}
	spec := childSpec{Kind: "traced", Workload: wl.Name, Seed: p.seed, Seconds: p.seconds,
		SpanPath: filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.json", wl.Name, p.seed))}
	if err := p.spawn(spec, rec.Layers); err != nil {
		return nil, err
	}
	h2, err := p.hostSpeed()
	if err != nil {
		return nil, err
	}
	l := rec.Layers
	rec.HostSpeedIndex = (h1 + h2) / 2 / refKernelSeconds
	l.Metrics["host.speed_index"] = rec.HostSpeedIndex
	l.Metrics["trace.overhead_share"] = (l.Crawl.RunWallS / (h1 + h2)) / (plain.RunWallS / (h0 + h1))
	rec.fillPerLayer()
	return rec, nil
}

// fillPerLayer reduces a traced pass to the record's metrics and verdict.
func (r *runRecord) fillPerLayer() {
	l := r.Layers
	r.Attempted, r.Failed = l.Crawl.Sessions, l.Crawl.unreconciled()
	r.Problems = append(r.Problems, l.Problems...)
	r.Metrics = make(map[string]metricValue, len(perLayer))
	for _, def := range perLayer {
		r.Metrics[def.Name] = metricValue{Value: l.Metrics[def.Name], Unit: def.Unit}
	}
	r.Correct = len(r.Problems) == 0
}

// crossCheckLossy applies the chaos-soak contract when one invocation
// measured both DNS workloads: faulted probes are excluded, not
// misclassified, so dns_lossy's hijack share stays within 2 pp of
// dns_crawl's.
func crossCheckLossy(records []runRecord) {
	share := func(name string) (float64, *runRecord) {
		for i := range records {
			if r := &records[i]; r.Workload == name && r.Trace == 0 && len(r.Crawls) > 0 {
				var vs []float64
				for _, c := range r.Crawls {
					vs = append(vs, float64(c.Violations)/float64(c.NodesDone))
				}
				return median(vs), r
			}
		}
		return 0, nil
	}
	clean, a := share("dns_crawl")
	lossy, b := share("dns_lossy")
	if a == nil || b == nil {
		return
	}
	if diff := math.Abs(lossy - clean); diff > 0.02 {
		b.Problems = append(b.Problems, fmt.Sprintf(
			"hijack share under lossy-links %.4f vs fault-free %.4f: %.2f pp apart (> 2 pp), faulted probes are skewing the rate",
			lossy, clean, 100*diff))
		b.Correct = false
	}
}
