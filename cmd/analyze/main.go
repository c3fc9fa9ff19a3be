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

	tft "github.com/tftproject/tft"
	"github.com/tftproject/tft/internal/analysis"
)

func main() {
	dir := flag.String("dir", ".", "directory containing tft dataset files")
	flag.Parse()

	runs, err := tft.LoadRelease(*dir)
	if err != nil {
		slog.New(slog.NewTextHandler(os.Stderr, nil)).Error("loading release", "dir", *dir, "err", err)
		os.Exit(1)
	}
	for _, run := range runs {
		fmt.Println(run.Headline())
		for _, t := range run.Tables() {
			fmt.Println(t)
		}
		if m, ok := run.(*tft.MonitorRun); ok {
			fmt.Println(analysis.PlotCDFs(m.Analysis.Figure5(6), 90, 18))
		}
	}
}
