// Command analyze regenerates the paper's tables from released dataset
// files alone, without re-running the measurement — the consumer side of
// the paper's code-and-data release (contribution 4).
//
//	tft -dump out/          # produce out/geo.jsonl, out/dns.jsonl, ...
//	analyze -dir out/       # regenerate the tables from the files
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"

	"github.com/tftproject/tft/internal/analysis"
	"github.com/tftproject/tft/internal/dataset"
	"github.com/tftproject/tft/internal/geo"
)

// experiment describes one dataset file and how to analyze it. The load
// function reads the file, runs the analysis against the experiment's own
// geo snapshot, prints a headline, and returns the tables to render.
type experiment struct {
	file string
	geo  []string // snapshot candidates, most specific first
	load func(f *os.File, cfg analysis.Config, reg *geo.Registry) ([]*analysis.Table, error)
}

func main() {
	dir := flag.String("dir", ".", "directory containing tft dataset files")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	// Each experiment ran against its own world, so each carries its own
	// geo snapshot; geo.jsonl is the DNS world's (and the fallback).
	loadGeo := func(names ...string) (*dataset.Header, *geo.Registry) {
		for _, name := range names {
			f, err := os.Open(filepath.Join(*dir, name))
			if err != nil {
				continue
			}
			h, reg, err := dataset.ReadGeo(f)
			f.Close()
			if err != nil {
				fatal("reading geo snapshot", "file", name, "err", err)
			}
			return h, reg
		}
		fatal("no geo snapshot found; attribution requires the AS/org mapping",
			"dir", *dir, "need", "geo.jsonl")
		return nil, nil
	}
	gh, reg := loadGeo("geo.jsonl")
	cfg := analysis.Config{Scale: gh.Scale}
	fmt.Printf("loaded geo snapshot: %d ASes, %d orgs (seed %d, scale %.3f)\n\n",
		reg.NumASes(), reg.NumOrgs(), gh.Seed, gh.Scale)

	experiments := []experiment{
		{file: "dns.jsonl", geo: []string{"geo.jsonl"},
			load: func(f *os.File, cfg analysis.Config, reg *geo.Registry) ([]*analysis.Table, error) {
				h, ds, err := dataset.ReadDNS(f)
				if err != nil {
					return nil, err
				}
				a := analysis.AnalyzeDNS(cfg, reg, ds)
				s := a.Summary()
				fmt.Printf("== DNS: %d records; %d measured, hijacked %.1f%%, attribution %v\n\n",
					h.Records, s.MeasuredNodes, s.HijackPct, s.Attribution)
				return a.Tables(), nil
			}},
		{file: "http.jsonl", geo: []string{"geo-http.jsonl", "geo.jsonl"},
			load: func(f *os.File, cfg analysis.Config, reg *geo.Registry) ([]*analysis.Table, error) {
				h, ds, err := dataset.ReadHTTP(f)
				if err != nil {
					return nil, err
				}
				a := analysis.AnalyzeHTTP(cfg, reg, ds)
				s := a.Summary()
				fmt.Printf("== HTTP: %d records; HTML modified %d, images %d, JS %d, CSS %d\n\n",
					h.Records, s.HTMLModified, s.ImageModified, s.JSReplaced, s.CSSReplaced)
				return a.Tables(), nil
			}},
		{file: "tls.jsonl", geo: []string{"geo-tls.jsonl", "geo.jsonl"},
			load: func(f *os.File, cfg analysis.Config, reg *geo.Registry) ([]*analysis.Table, error) {
				h, ds, err := dataset.ReadTLS(f)
				if err != nil {
					return nil, err
				}
				a := analysis.AnalyzeTLS(cfg, reg, ds)
				s := a.Summary()
				fmt.Printf("== HTTPS: %d records; affected %d (%.2f%%)\n\n", h.Records, s.Affected, s.AffectedPct)
				return a.Tables(), nil
			}},
		{file: "monitor.jsonl", geo: []string{"geo-monitor.jsonl", "geo.jsonl"},
			load: func(f *os.File, cfg analysis.Config, reg *geo.Registry) ([]*analysis.Table, error) {
				h, ds, err := dataset.ReadMonitor(f)
				if err != nil {
					return nil, err
				}
				a := analysis.AnalyzeMonitor(cfg, reg, ds)
				s := a.Summary()
				fmt.Printf("== Monitoring: %d records; monitored %d (%.2f%%)\n\n", h.Records, s.Monitored, s.MonitoredPct)
				fmt.Println(analysis.PlotCDFs(a.Figure5(6), 90, 18))
				return a.Tables(), nil
			}},
		{file: "smtp.jsonl", geo: []string{"geo-smtp.jsonl", "geo.jsonl"},
			load: func(f *os.File, cfg analysis.Config, reg *geo.Registry) ([]*analysis.Table, error) {
				h, ds, err := dataset.ReadSMTP(f)
				if err != nil {
					return nil, err
				}
				a := analysis.AnalyzeSMTP(cfg, reg, ds)
				s := a.Summary()
				fmt.Printf("== SMTP: %d records; blocked %d (%.1f%%), stripped %d (%.2f%%)\n\n",
					h.Records, s.Blocked, s.BlockedPct, s.Stripped, s.StrippedPct)
				return a.Tables(), nil
			}},
	}

	for _, exp := range experiments {
		f, err := os.Open(filepath.Join(*dir, exp.file))
		if err != nil {
			continue // file absent: the dump did not include this experiment
		}
		_, ereg := loadGeo(exp.geo...)
		tables, err := exp.load(f, cfg, ereg)
		f.Close()
		if err != nil {
			fatal("analyzing dataset", "file", exp.file, "err", err)
		}
		for _, t := range tables {
			fmt.Println(t)
		}
	}
}
