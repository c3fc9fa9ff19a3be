// Package tft reproduces "Tunneling for Transparency: A Large-Scale
// Analysis of End-to-End Violations in the Internet" (IMC 2016): it builds
// a calibrated synthetic Internet with a Luminati-style P2P proxy service
// on top, runs the paper's four measurement experiments through it, and
// regenerates every table and figure of the evaluation.
//
// Quick start:
//
//	run, err := tft.RunDNS(context.Background(), tft.Options{Seed: 1, Scale: 0.05})
//	_, t3 := run.Analysis.Table3(10)
//	fmt.Println(t3)
//
// Scale 1.0 reproduces full paper scale (1.27M nodes across the four
// experiments); the default 0.05 runs in seconds on a laptop with the same
// table shapes.
//
// Every experiment satisfies the Run interface: uniform access to the
// rendered tables, the crawl statistics, and a metrics snapshot of the
// instrumented crawl engine (sessions, novelty, stop-rule trajectory,
// per-country coverage, violations).
package tft

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"github.com/tftproject/tft/internal/analysis"
	"github.com/tftproject/tft/internal/core"
	"github.com/tftproject/tft/internal/dataset"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/metrics"
	"github.com/tftproject/tft/internal/population"
	"github.com/tftproject/tft/internal/progress"
	"github.com/tftproject/tft/internal/proxynet"
	"github.com/tftproject/tft/internal/simnet"
	"github.com/tftproject/tft/internal/trace"
)

// Options selects a world and crawl configuration.
type Options struct {
	// Seed drives every stochastic choice; a (Seed, Scale) pair reproduces
	// a run exactly.
	Seed uint64
	// Scale multiplies the paper's population sizes (0 < Scale <= 1;
	// default 0.05).
	Scale float64
	// Workers is the measurement concurrency (default 8).
	Workers int
	// Crawl overrides the stop-rule parameters when non-zero. Its Workers
	// is overwritten with Options.Workers. When Crawl.Metrics is nil, each
	// Run* call installs a fresh registry so every run exposes a Metrics()
	// snapshot.
	Crawl core.CrawlConfig
	// Chaos names a fault-injection profile (simnet.ProfileNames) to arm on
	// the world's fabric; it also installs the super proxy's per-exit
	// circuit breaker. Empty (the default) runs fault-free and is
	// byte-identical to builds without the chaos plane. The injection
	// schedule is a pure function of (Seed, Scale, Chaos).
	Chaos string
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 0.05
	}
	if o.Seed == 0 {
		o.Seed = 20160413
	}
	o.Crawl.Workers = o.Workers
	return o
}

// instrument ensures the run has a metrics registry and a span tracer, and
// threads both into the world's service side: the registry into the super
// proxy, the tracer into the super proxy and every exit node, so one
// measured request yields one complete span tree. The tracer runs on the
// world's virtual clock, so span durations are in simulated time.
func (o *Options) instrument(w *population.World) {
	if o.Crawl.Metrics == nil {
		o.Crawl.Metrics = metrics.NewRegistry()
	}
	if o.Crawl.Progress == nil {
		// Always install a flight recorder so every run carries a populated
		// manifest; the tracker never touches the crawl's RNG or measured
		// output, so a fixed-seed run is byte-identical with or without it.
		o.Crawl.Progress = progress.NewTracker()
	}
	if o.Crawl.Tracer == nil {
		o.Crawl.Tracer = trace.New(w.Clock.Now, 0)
	}
	if w.Super.Metrics == nil {
		w.Super.Metrics = o.Crawl.Metrics
	}
	if w.Super.Tracer == nil {
		w.Super.Tracer = o.Crawl.Tracer
	}
	tracer := o.Crawl.Tracer
	w.Pool.SetPrepare(func(n *proxynet.ExitNode) {
		if n.Tracer == nil {
			n.Tracer = tracer
		}
	})
	if lp, ok := w.Pool.(*proxynet.LazyPool); ok {
		lp.SetMetrics(o.Crawl.Metrics)
	}
}

// applyChaos arms the world's fault plane and the proxy-side hardening when
// Options.Chaos names a profile. Called after instrument (so the metrics
// registry exists) and before the experiment runs. With Chaos empty it does
// nothing: the breaker is only installed under chaos, so a fault-free run
// stays byte-identical to a build without the chaos plane.
func (o *Options) applyChaos(w *population.World) error {
	if o.Chaos == "" {
		return nil
	}
	prof, ok := simnet.ProfileByName(o.Chaos)
	if !ok {
		return fmt.Errorf("unknown chaos profile %q (have %v)", o.Chaos, simnet.ProfileNames())
	}
	plane := simnet.NewFaultPlane(prof, o.Seed, nil)
	faults := o.Crawl.Metrics.Labeled("fault_injected_total")
	plane.OnInject(func(kind string) { faults.Inc(kind) })
	w.Fabric.Faults = plane
	w.Super.Health = proxynet.NewHealthTracker(w.Clock, o.Seed, o.Crawl.Metrics)
	return nil
}

// newWorld builds a world and wires the run into it — the probe names'
// answer rules, instrument, then applyChaos — so every path that crawls
// (runExperiment, RunLongitudinal) gets them from this one place.
func (o *Options) newWorld(build func(seed uint64, scale float64) (*population.World, error)) (*population.World, error) {
	w, err := build(o.Seed, o.Scale)
	if err != nil {
		return nil, err
	}
	w.Auth.SetFallback(core.ProbeRules(population.WebIP, geo.SuperProxyResolverEgress))
	o.instrument(w)
	if err := o.applyChaos(w); err != nil {
		return nil, err
	}
	return w, nil
}

// wallNow stamps run manifests. Manifests are operator-facing run records
// (when did this campaign actually execute), so they use the wall clock by
// contract and are excluded from all determinism comparisons.
func wallNow() time.Time {
	//tftlint:ignore simclock -- manifest timestamps are operator-facing wall-clock metadata, never part of measured output
	return time.Now()
}

// buildManifest closes a run's flight-recorder record from the crawl stats
// and the tracker's final counts. Called at the end of each Run* while the
// tracker still holds that crawl's state (a shared tracker is reset by the
// next run's Begin).
func (o Options) buildManifest(name string, st core.Stats, started, finished time.Time) *progress.RunManifest {
	snap := o.Crawl.Progress.Snapshot()
	wm := o.Crawl.Progress.CaptureWatermarks()
	return &progress.RunManifest{
		Experiment:      name,
		Seed:            o.Seed,
		Scale:           o.Scale,
		Workers:         snap.Workers, // crawler-resolved count, after defaults
		Shards:          snap.Workers,
		StartedAt:       started,
		FinishedAt:      finished,
		DurationSeconds: finished.Sub(started).Seconds(),
		Sessions:        int64(st.Sessions),
		UniqueNodes:     int64(st.UniqueNodes),
		NodesDone:       snap.Done,
		TotalNodes:      snap.TotalNodes,
		Probes:          snap.Probes,
		Violations:      snap.Violations,
		Failures:        snap.Failures,
		Discarded:       snap.Discarded,
		Duplicates:      snap.Duplicates,
		Faults:          snap.Faults,
		StoppedByRule:   st.StoppedByRule,
		Stalls:          snap.Stalls,
		Watermarks:      wm,
	}
}

func (o Options) cfg() analysis.Config { return analysis.Config{Scale: o.Scale} }

// faultLine is the error-budget suffix shared by every Headline. It is
// empty when the run lost no probes to transport faults, so fault-free
// output is byte-identical to builds without the chaos plane.
func faultLine(st core.Stats) string {
	if st.Faulted == 0 {
		return ""
	}
	return fmt.Sprintf("   error budget: %d probes lost to transport faults (excluded from violation rates)\n", st.Faulted)
}

// Run is the uniform view over one experiment's results: every experiment
// (DNS, HTTP, TLS, monitoring, SMTP) exposes its rendered paper tables,
// its crawl statistics, and the instrumented crawl engine's metrics
// snapshot through the same three calls. Consumers (Results.Overview,
// Results.Dump, cmd/tft, cmd/analyze) iterate over Runs instead of
// repeating per-experiment code.
type Run interface {
	// Name is the run's release identifier ("dns", "http", "tls",
	// "monitor", "smtp") — also the dataset file stem in a Dump.
	Name() string
	// Tables renders the run's paper artifacts.
	Tables() []*analysis.Table
	// Stats summarises the crawl that produced the run.
	Stats() core.Stats
	// Metrics snapshots the run's crawl-engine telemetry.
	Metrics() *metrics.Snapshot
	// Spans returns the finished request spans retained by the run's
	// tracer — the per-request trace trees behind -trace/-trace-jsonl.
	Spans() []trace.SpanData
	// Headline is the one-line summary the CLI prints above the tables.
	Headline() string
	// Overview is the run's Table-2 coverage row.
	Overview() analysis.DatasetOverview

	// WriteDataset and WriteGeo serialize the run and its geo snapshot for
	// the release dump — the exported surface cmd/analyze and external
	// consumers rebuild every table from.
	WriteDataset(w io.Writer) error
	WriteGeo(w io.Writer) error

	// Manifest is the run's flight-recorder closing record (seed, scale,
	// workers, duration, final counts, peak watermarks). Results.Dump
	// collects the campaign's manifests into manifest.json.
	Manifest() *progress.RunManifest
}

// crawlDataset and tableSet are what ExperimentRun needs from an
// experiment's dataset and analysis types, whatever else they carry.
type (
	crawlDataset interface{ CrawlStats() core.Stats }
	tableSet     interface{ Tables() []*analysis.Table }
)

// ExperimentRun bundles one experiment's world, dataset, and analysis. It
// is the one implementation of Run; DNSRun … SMTPRun are its instantiations.
// Everything that differs between experiments — how the world is built,
// which driver crawls it, how the headline reads — lives in the
// experiment's row of the registry (experiments.go), which the run finds
// by its own type.
type ExperimentRun[D crawlDataset, A tableSet] struct {
	Opts     Options
	World    *population.World
	Dataset  D
	Analysis A

	man *progress.RunManifest
}

// The five experiments' run types.
type (
	// DNSRun bundles the §4 experiment's world, dataset, and analysis.
	DNSRun = ExperimentRun[*core.DNSDataset, *analysis.DNSAnalysis]
	// HTTPRun bundles the §5 experiment.
	HTTPRun = ExperimentRun[*core.HTTPDataset, *analysis.HTTPAnalysis]
	// TLSRun bundles the §6 experiment.
	TLSRun = ExperimentRun[*core.TLSDataset, *analysis.TLSAnalysis]
	// MonitorRun bundles the §7 experiment.
	MonitorRun = ExperimentRun[*core.MonDataset, *analysis.MonAnalysis]
	// SMTPRun bundles the §3.4 extension experiment: SMTP probing through an
	// arbitrary-port tunnel service, implementing the paper's stated future
	// work.
	SMTPRun = ExperimentRun[*core.SMTPDataset, *analysis.SMTPAnalysis]
)

// runExperiment is the one path from Options to a finished run: defaults,
// world, telemetry and chaos wiring, crawl, analysis, manifest.
func runExperiment[D crawlDataset, A tableSet](ctx context.Context, e *experiment[D, A], opts Options) (*ExperimentRun[D, A], error) {
	opts = opts.withDefaults()
	started := wallNow()
	w, err := opts.newWorld(e.build)
	if err != nil {
		return nil, err
	}
	ds, err := e.driver(w, opts).Run(ctx)
	if err != nil {
		return nil, err
	}
	return &ExperimentRun[D, A]{Opts: opts, World: w, Dataset: ds,
		Analysis: e.analyze(opts.cfg(), w.Geo, ds),
		man:      opts.buildManifest(e.name, ds.CrawlStats(), started, wallNow())}, nil
}

// RunDNS builds a DNS world and runs the NXDOMAIN-hijack experiment.
func RunDNS(ctx context.Context, opts Options) (*DNSRun, error) {
	return runExperiment(ctx, dnsExperiment, opts)
}

// RunHTTP builds an HTTP world and runs the content-modification
// experiment.
func RunHTTP(ctx context.Context, opts Options) (*HTTPRun, error) {
	return runExperiment(ctx, httpExperiment, opts)
}

// RunTLS builds a TLS world and runs the certificate-replacement
// experiment.
func RunTLS(ctx context.Context, opts Options) (*TLSRun, error) {
	return runExperiment(ctx, tlsExperiment, opts)
}

// RunMonitor builds a monitoring world and runs the content-monitoring
// experiment (24 virtual hours of server-log watching).
func RunMonitor(ctx context.Context, opts Options) (*MonitorRun, error) {
	return runExperiment(ctx, monitorExperiment, opts)
}

// RunSMTP builds the extension world (a VPN allowing any CONNECT port) and
// probes the measurement mail server through every node, detecting port-25
// blocking and STARTTLS stripping.
func RunSMTP(ctx context.Context, opts Options) (*SMTPRun, error) {
	return runExperiment(ctx, smtpExperiment, opts)
}

// entry finds the run's registry row by the run's own type, so even a
// zero-valued run knows its name.
func (r *ExperimentRun[D, A]) entry() *experiment[D, A] {
	for _, e := range experimentRegistry {
		if e, ok := e.(*experiment[D, A]); ok {
			return e
		}
	}
	panic(fmt.Sprintf("tft: %T is not a registered experiment's run type", r))
}

// Name implements Run.
func (r *ExperimentRun[D, A]) Name() string { return r.entry().name }

// Tables renders the run's paper artifacts.
func (r *ExperimentRun[D, A]) Tables() []*analysis.Table { return r.Analysis.Tables() }

// Stats summarises the crawl.
func (r *ExperimentRun[D, A]) Stats() core.Stats { return r.Dataset.CrawlStats() }

// Metrics snapshots the run's crawl telemetry.
func (r *ExperimentRun[D, A]) Metrics() *metrics.Snapshot { return r.Opts.Crawl.Metrics.Snapshot() }

// Spans returns the run's retained request spans.
func (r *ExperimentRun[D, A]) Spans() []trace.SpanData { return r.Opts.Crawl.Tracer.Spans() }

// Headline is the CLI summary, closed by the run's error-budget line.
func (r *ExperimentRun[D, A]) Headline() string {
	return r.entry().headline(r.Analysis, r.Dataset) + faultLine(r.Stats())
}

// Overview is the Table-2 row.
func (r *ExperimentRun[D, A]) Overview() analysis.DatasetOverview {
	return r.entry().overview(r.Analysis, r.Dataset)
}

// WriteDataset serializes the run's observations in the release format.
func (r *ExperimentRun[D, A]) WriteDataset(w io.Writer) error {
	return r.entry().write(w, r.Opts.Seed, r.Opts.Scale, r.Dataset)
}

// WriteGeo serializes the geo snapshot of the world the run crawled.
func (r *ExperimentRun[D, A]) WriteGeo(w io.Writer) error {
	return dataset.WriteGeo(w, r.Opts.Seed, r.Opts.Scale, r.World.Geo)
}

// Manifest returns the run's flight-recorder manifest: seed, scale,
// workers, duration, final counts, and peak runtime watermarks.
func (r *ExperimentRun[D, A]) Manifest() *progress.RunManifest { return r.man }

// Results is the output of a full four-experiment campaign.
type Results struct {
	DNS     *DNSRun
	HTTP    *HTTPRun
	TLS     *TLSRun
	Monitor *MonitorRun
}

// Runs returns the campaign's experiments in paper order. Consumers
// iterate over this slice instead of naming each field.
func (r *Results) Runs() []Run {
	return []Run{r.DNS, r.HTTP, r.TLS, r.Monitor}
}

// RunAll executes all four experiments. Each run gets its own metrics
// registry (unless opts.Crawl.Metrics pre-installs a shared one).
func RunAll(ctx context.Context, opts Options) (*Results, error) {
	dns, err := RunDNS(ctx, opts)
	if err != nil {
		return nil, fmt.Errorf("dns experiment: %w", err)
	}
	http, err := RunHTTP(ctx, opts)
	if err != nil {
		return nil, fmt.Errorf("http experiment: %w", err)
	}
	tls, err := RunTLS(ctx, opts)
	if err != nil {
		return nil, fmt.Errorf("tls experiment: %w", err)
	}
	mon, err := RunMonitor(ctx, opts)
	if err != nil {
		return nil, fmt.Errorf("monitoring experiment: %w", err)
	}
	return &Results{DNS: dns, HTTP: http, TLS: tls, Monitor: mon}, nil
}

// Overview builds Table 2 from the campaign's runs.
func (r *Results) Overview() *analysis.Table {
	rows := make([]analysis.DatasetOverview, 0, 4)
	for _, run := range r.Runs() {
		rows = append(rows, run.Overview())
	}
	return analysis.Table2(rows)
}

// geoFile names a run's geo snapshot within a release: each experiment ran
// against its own world, so each dataset <name>.jsonl has its own snapshot,
// geo-<name>.jsonl — except the DNS world's, which is geo.jsonl.
func geoFile(name string) string {
	if name == "dns" {
		return "geo.jsonl"
	}
	return "geo-" + name + ".jsonl"
}

// Dump writes the campaign's datasets plus the geo snapshots (geoFile) into
// dir — the code-and-data release of the paper's fourth contribution.
// LoadRelease, and through it cmd/analyze, regenerates every table from
// these files alone.
func (r *Results) Dump(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(w io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return fn(f)
	}
	manifests := make([]*progress.RunManifest, 0, 4)
	for _, run := range r.Runs() {
		if err := write(geoFile(run.Name()), run.WriteGeo); err != nil {
			return err
		}
		if err := write(run.Name()+".jsonl", run.WriteDataset); err != nil {
			return err
		}
		manifests = append(manifests, run.Manifest())
	}
	// manifest.json records how the release was produced: per-run seeds,
	// scale, workers, durations, final counts, and runtime watermarks.
	return write("manifest.json", func(w io.Writer) error {
		return progress.WriteManifests(w, manifests)
	})
}

// LoadRelease reads back what Dump wrote: for each registered experiment
// whose dataset is in dir, in paper order, the dataset and its geo snapshot,
// analyzed again. An experiment with no dataset file is skipped; a dataset
// without its snapshot, or a directory with no dataset at all, is an error.
//
// A loaded run answers Name, Tables, Headline, Overview, WriteDataset and
// WriteGeo like the live run it was dumped from. What a release does not
// carry reads empty: Stats is zero, and so are the two crawl-cost figures a
// headline quotes (HTTP's quota skips, TLS's tunnel count); Metrics is an
// empty snapshot, Spans and Manifest are nil, and World holds the geo
// registry and nothing else.
func LoadRelease(dir string) ([]Run, error) {
	var runs []Run
	for _, e := range experimentRegistry {
		run, err := e.load(dir)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no dataset files in %s", dir)
	}
	return runs, nil
}

// load is LoadRelease for one row. The error wraps fs.ErrNotExist only when
// the dataset file itself is absent.
func (e *experiment[D, A]) load(dir string) (Run, error) {
	f, err := os.Open(filepath.Join(dir, e.name+".jsonl"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h, ds, err := e.read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", f.Name(), err)
	}
	g, err := os.Open(filepath.Join(dir, geoFile(e.name)))
	if err != nil {
		return nil, fmt.Errorf("%s has no geo snapshot: %v", f.Name(), err)
	}
	defer g.Close()
	_, reg, err := dataset.ReadGeo(g)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", g.Name(), err)
	}
	opts := Options{Seed: h.Seed, Scale: h.Scale}
	return &ExperimentRun[D, A]{Opts: opts, World: &population.World{Geo: reg}, Dataset: ds,
		Analysis: e.analyze(opts.cfg(), reg, ds)}, nil
}

// LongitudinalRun bundles a §9-style continuous measurement: repeated DNS
// crawls over virtual weeks while the violator population evolves.
type LongitudinalRun struct {
	Opts  Options
	World *population.World
	Waves []core.Wave
}

// RunLongitudinal executes a multi-wave DNS campaign against one world,
// applying population.StandardEvolution between waves (large ISPs
// progressively retiring their hijacking appliances). Each wave carries
// its own metrics snapshot in Wave.Metrics.
func RunLongitudinal(ctx context.Context, opts Options, waves int) (*LongitudinalRun, error) {
	opts = opts.withDefaults()
	w, err := opts.newWorld(dnsExperiment.build)
	if err != nil {
		return nil, err
	}
	long := &core.LongitudinalDNS{
		Experiment:   dnsDriver(w, opts),
		Clock:        w.Clock,
		Waves:        waves,
		BetweenWaves: population.StandardEvolution(w),
	}
	ws, err := long.Run(ctx)
	if err != nil {
		return nil, err
	}
	return &LongitudinalRun{Opts: opts, World: w, Waves: ws}, nil
}

// Table renders the wave time series, including each wave's crawl cost
// (sessions spent) from the per-wave metrics.
func (r *LongitudinalRun) Table() *analysis.Table {
	rows := make([]analysis.WaveRow, 0, len(r.Waves))
	for _, w := range r.Waves {
		rows = append(rows, analysis.WaveRow{
			Wave: w.Index, Measured: w.Measured, Hijacked: w.Hijacked,
			HijackPct: 100 * w.HijackRate(),
		})
	}
	return analysis.TableLongitudinal(rows)
}
