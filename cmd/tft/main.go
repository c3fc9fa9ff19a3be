// Command tft runs the paper's measurement campaign against a calibrated
// synthetic world and prints the reproduced tables and figures.
//
// Usage:
//
//	tft [-experiment dns|http|tls|monitor|smtp|longitudinal|all]
//	    [-scale 0.05] [-seed N] [-workers 8] [-report]
//	    [-chaos flaky-exits|lossy-links|slow-network]
//	    [-metrics] [-metrics-json]
//	    [-trace out.json] [-trace-jsonl out.jsonl]
//	    [-progress] [-progress-jsonl out.jsonl] [-progress-interval 1s]
//	    [-stall-after 2m] [-status-addr :8080]
//
// -scale 1.0 reproduces full paper scale (1.27M nodes across experiments);
// expect minutes of runtime and several GB of memory. The default 5% runs
// in seconds with the same table shapes.
//
// -chaos arms a named deterministic fault-injection profile on the synthetic
// fabric (resets, stalls, trickle, truncation, corruption) and installs the
// super proxy's per-exit circuit breaker. The schedule is a pure function of
// (seed, scale, profile): the same triple reproduces the same faults and the
// same tables. Probes lost to injected faults are reported as the run's
// error budget and excluded from violation rates.
//
// Every experiment implements the tft.Run interface, so the single-
// experiment and all-experiment paths share one printing loop. -metrics
// appends the crawl-engine metrics table per run; -metrics-json dumps the
// raw snapshots as expvar-style JSON to stdout.
//
// -trace writes each run's retained spans as Chrome trace_event JSON — open
// it at ui.perfetto.dev or chrome://tracing to see each probe's client →
// super proxy → exit node span tree. A run traces a sample chosen before
// each session starts: every 512th session, whole, and no span of any
// other. Its ring holds the last 16 384 spans, which at Scale 0.05 is the
// whole sample (a DNS crawl's is about 1.4 K spans). -trace-jsonl writes
// the same spans one JSON object per line for grep/jq pipelines; each
// probe's root span (kind "client") is its record: session, country, zid,
// outcome and, when the probe found one, violation.
//
// -progress attaches the flight recorder and rewrites a live stderr line
// (done/total, throughput, ETA, heap, goroutines). -progress-jsonl streams
// every checkpoint sample — plus watchdog stall reports and the final
// per-run manifests — as JSONL for offline analysis; -progress-interval
// sets the sampling cadence and -stall-after arms the stall watchdog (0
// disables it). -status-addr serves the statusz introspection surface,
// including /progressz, while the campaign runs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	tft "github.com/tftproject/tft"
	"github.com/tftproject/tft/internal/analysis"
	"github.com/tftproject/tft/internal/metrics"
	"github.com/tftproject/tft/internal/progress"
	"github.com/tftproject/tft/internal/simnet"
	"github.com/tftproject/tft/internal/statusz"
	"github.com/tftproject/tft/internal/trace"
)

// cliModes are the -experiment values this command adds on top of the
// library's experiment registry; the usage message iterates the registry
// (tft.Experiments) first, then these, so it cannot drift from either.
var cliModes = []struct{ name, desc string }{
	{"longitudinal", "§9 repeated weekly crawls"},
	{"all", "every experiment plus the paper-vs-measured report"},
}

func usageUnknown(name string) {
	fmt.Fprintf(os.Stderr, "tft: unknown experiment %q\n\nvalid -experiment values:\n", name)
	for _, e := range tft.Experiments() {
		fmt.Fprintf(os.Stderr, "  %-13s %s\n", e, tft.DescribeExperiment(e))
	}
	for _, e := range cliModes {
		fmt.Fprintf(os.Stderr, "  %-13s %s\n", e.name, e.desc)
	}
	os.Exit(2)
}

func main() {
	var (
		experiment  = flag.String("experiment", "all", "dns, http, tls, monitor, smtp, longitudinal, or all")
		scale       = flag.Float64("scale", 0.05, "fraction of the paper's population sizes (0 < s <= 1)")
		seed        = flag.Uint64("seed", 20160413, "world/crawl seed; a (seed, scale) pair reproduces a run")
		workers     = flag.Int("workers", 8, "concurrent measurement sessions")
		chaos       = flag.String("chaos", "", "fault-injection profile: "+strings.Join(simnet.ProfileNames(), ", ")+" (empty = fault-free)")
		report      = flag.Bool("report", true, "print the paper-vs-measured report (all experiments only)")
		dump        = flag.String("dump", "", "directory to write the dataset release into (all experiments only)")
		showMetrics = flag.Bool("metrics", false, "print each run's crawl-engine metrics table")
		metricsJSON = flag.Bool("metrics-json", false, "dump each run's metrics snapshot as JSON to stdout")
		traceOut    = flag.String("trace", "", "write each run's retained spans as Chrome trace_event JSON to this file: every 512th session's whole trace, the last 16384 spans")
		traceJSONL  = flag.String("trace-jsonl", "", "write each run's retained spans as JSONL to this file (the same spans as -trace)")

		showProgress  = flag.Bool("progress", false, "rewrite a live progress line on stderr while the crawl runs")
		progressJSONL = flag.String("progress-jsonl", "", "stream flight-recorder checkpoints and run manifests as JSONL to this file")
		progressEvery = flag.Duration("progress-interval", time.Second, "flight-recorder sampling interval")
		stallAfter    = flag.Duration("stall-after", 2*time.Minute, "report a stall when no shard progresses for this long (0 disables the watchdog)")
		statusAddr    = flag.String("status-addr", "", "serve the statusz introspection surface (incl. /progressz) on this address while running")
	)
	flag.Parse()

	opts := tft.Options{Seed: *seed, Scale: *scale, Workers: *workers, Chaos: *chaos}
	ctx := context.Background()
	//tftlint:ignore simclock -- operator-facing wall-clock timing of the CLI run; never part of measured output
	start := time.Now()

	// The flight recorder: one shared tracker + registry across every run
	// in the campaign, sampled on the wall clock (the operator is watching
	// real time, even though the crawl inside runs on virtual time).
	var (
		sampler  *progress.Sampler
		ckptFile *os.File
	)
	if *showProgress || *progressJSONL != "" || *statusAddr != "" {
		tracker := progress.NewTracker()
		reg := metrics.NewRegistry()
		opts.Crawl.Progress = tracker
		opts.Crawl.Metrics = reg
		sampler = &progress.Sampler{
			Tracker:    tracker,
			Clock:      simnet.Real{},
			Interval:   *progressEvery,
			Metrics:    reg,
			StallAfter: *stallAfter,
		}
		if *progressJSONL != "" {
			f, err := os.Create(*progressJSONL)
			exitOn(err)
			ckptFile = f
			sampler.Checkpoint = f
		}
		if *showProgress {
			sampler.OnSample = func(sm progress.Sample) {
				fmt.Fprintf(os.Stderr, "\r\033[K%s", progressLine(sm))
			}
		}
		exitOn(sampler.Start())
		if *statusAddr != "" {
			srv := &statusz.Server{Metrics: reg, Progress: tracker}
			addr, err := srv.Start(*statusAddr)
			exitOn(err)
			fmt.Fprintf(os.Stderr, "statusz listening on http://%s/progressz\n", addr)
		}
	}

	var allSpans []trace.SpanData
	var manifests []*progress.RunManifest
	printRun := func(run tft.Run) {
		fmt.Println(run.Headline())
		for _, t := range run.Tables() {
			fmt.Println(t)
		}
		if m, ok := run.(*tft.MonitorRun); ok {
			fmt.Println(analysis.PlotCDFs(m.Analysis.Figure5(6), 90, 18))
		}
		if *showMetrics {
			fmt.Println(tft.MetricsTable(run.Name(), run.Metrics()))
		}
		if *metricsJSON {
			if err := run.Metrics().WriteJSON(os.Stdout); err != nil {
				exitOn(err)
			}
			fmt.Println()
		}
		allSpans = append(allSpans, run.Spans()...)
		if m := run.Manifest(); m != nil {
			manifests = append(manifests, m)
		}
	}

	switch *experiment {
	case "longitudinal":
		run, err := tft.RunLongitudinal(ctx, opts, 4)
		exitOn(err)
		fmt.Println("== Longitudinal (§9): repeated weekly crawls while large hijackers retire their appliances")
		fmt.Println()
		fmt.Println(run.Table())
		if *showMetrics {
			for _, w := range run.Waves {
				fmt.Printf("wave %d: sessions=%d unique=%d duplicates=%d\n",
					w.Index, w.Metrics.Counter("crawl_sessions_total"),
					w.Metrics.Counter("crawl_nodes_total"),
					w.Metrics.Counter("crawl_duplicates_total"))
			}
		}
	case "all":
		res, err := tft.RunAll(ctx, opts)
		exitOn(err)
		fmt.Println(analysis.Table1())
		fmt.Println(res.Overview())
		for _, run := range res.Runs() {
			printRun(run)
		}
		if *report {
			fmt.Println(res.Report())
		}
		if *dump != "" {
			if err := res.Dump(*dump); err != nil {
				exitOn(err)
			}
			fmt.Printf("dataset release written to %s\n", *dump)
		}
	default:
		run, err := tft.RunExperiment(ctx, *experiment, opts)
		if errors.Is(err, tft.ErrUnknownExperiment) {
			usageUnknown(*experiment)
		}
		exitOn(err)
		printRun(run)
	}

	if sampler != nil {
		// Stop takes one final sample, so even a sub-interval run leaves a
		// complete checkpoint trail.
		exitOn(sampler.Stop())
		if *showProgress {
			fmt.Fprintln(os.Stderr)
		}
	}
	if ckptFile != nil {
		// Manifests ride the same stream as the samples: "type":"manifest"
		// lines close out the file, one per run.
		for _, m := range manifests {
			exitOn(m.WriteLine(ckptFile))
		}
		exitOn(ckptFile.Close())
		fmt.Printf("flight recorder (%d manifests) written to %s\n", len(manifests), *progressJSONL)
	}

	if *traceOut != "" {
		exitOn(writeFile(*traceOut, allSpans, trace.WriteChromeTrace))
		fmt.Printf("chrome trace (%d spans) written to %s — open at ui.perfetto.dev\n",
			len(allSpans), *traceOut)
	}
	if *traceJSONL != "" {
		exitOn(writeFile(*traceJSONL, allSpans, trace.WriteJSONL))
		fmt.Printf("span log (%d spans) written to %s\n", len(allSpans), *traceJSONL)
	}
	//tftlint:ignore simclock -- operator-facing wall-clock timing of the CLI run; never part of measured output
	fmt.Printf("completed in %v (scale %.3f, seed %d)\n", time.Since(start).Round(time.Millisecond), *scale, *seed)
}

// progressLine renders one sample as the -progress stderr line.
func progressLine(sm progress.Sample) string {
	var b strings.Builder
	if sm.Experiment != "" {
		fmt.Fprintf(&b, "[%s] ", sm.Experiment)
	}
	if sm.Total > 0 {
		fmt.Fprintf(&b, "%d/%d nodes (%.1f%%)", sm.Done, sm.Total,
			100*float64(sm.Done)/float64(sm.Total))
	} else {
		fmt.Fprintf(&b, "%d nodes", sm.Done)
	}
	fmt.Fprintf(&b, " | %.0f probes/s", sm.ProbesPerSec)
	if sm.ETASeconds >= 0 {
		fmt.Fprintf(&b, " | eta %s", (time.Duration(sm.ETASeconds) * time.Second).Round(time.Second))
	}
	fmt.Fprintf(&b, " | heap %dMB | %d goroutines",
		sm.Watermarks.HeapBytes>>20, sm.Watermarks.Goroutines)
	if sm.Stalled {
		b.WriteString(" | STALLED")
	}
	return b.String()
}

// writeFile renders spans with the given exporter into path ("-" means
// stdout).
func writeFile(path string, spans []trace.SpanData, export func(w io.Writer, spans []trace.SpanData) error) error {
	if path == "-" {
		return export(os.Stdout, spans)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := export(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
