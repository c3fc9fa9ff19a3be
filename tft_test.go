package tft

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/tftproject/tft/internal/core"
	"github.com/tftproject/tft/internal/metrics"
)

// Integration tests run the whole pipeline at a small scale; the benches in
// bench_test.go exercise the default scale.
const itScale = 0.02

func TestRunAllAndReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign in -short mode")
	}
	res, err := RunAll(context.Background(), Options{Seed: 3, Scale: itScale})
	if err != nil {
		t.Fatal(err)
	}
	comps := res.Compare()
	if len(comps) < 12 {
		t.Fatalf("only %d comparison rows", len(comps))
	}
	failed := 0
	for _, c := range comps {
		if !c.Holds {
			failed++
			t.Errorf("shape does not hold: %s %s — paper %s, measured %s", c.Ref, c.Metric, c.Paper, c.Measured)
		}
	}
	report := res.Report().String()
	if !strings.Contains(report, "Paper vs. measured") {
		t.Fatal("report render broken")
	}
	overview := res.Overview().String()
	if !strings.Contains(overview, "Exit Nodes") {
		t.Fatalf("overview broken:\n%s", overview)
	}
}

func TestRunDNSTables(t *testing.T) {
	run, err := RunDNS(context.Background(), Options{Seed: 5, Scale: itScale})
	if err != nil {
		t.Fatal(err)
	}
	tables := run.Tables()
	if len(tables) != 3 {
		t.Fatalf("tables = %d", len(tables))
	}
	t3 := tables[0].String()
	if !strings.Contains(t3, "Malaysia") {
		t.Errorf("Table 3 missing Malaysia:\n%s", t3)
	}
	t4 := tables[1].String()
	for _, isp := range []string{"TMnet", "Verizon", "Talk Talk"} {
		if !strings.Contains(t4, isp) {
			t.Errorf("Table 4 missing %s:\n%s", isp, t4)
		}
	}
	t5 := tables[2].String()
	if !strings.Contains(t5, "navigationshilfe.t-online.de") {
		t.Errorf("Table 5 missing t-online row:\n%s", t5)
	}
	if !strings.Contains(t5, "nortonsafe.search.ask.com") {
		t.Errorf("Table 5 missing norton row:\n%s", t5)
	}
}

func TestDefaultOptions(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 0.05 || o.Seed == 0 {
		t.Fatalf("defaults = %+v", o)
	}
	if _, err := RunDNS(context.Background(), Options{Scale: -1}); err == nil {
		t.Fatal("negative scale accepted")
	}
}

// TestDumpAndReanalyze is the release round trip, all of it: run a small
// campaign, dump it, reload it with LoadRelease — what cmd/analyze is a
// wrapper of — and hold every reloaded run to the live run it came from.
func TestDumpAndReanalyze(t *testing.T) {
	res, err := RunAll(context.Background(), Options{Seed: 11, Scale: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := res.Dump(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRelease(dir)
	if err != nil {
		t.Fatal(err)
	}
	live := res.Runs()
	if len(loaded) != len(live) {
		t.Fatalf("loaded %d runs, dumped %d", len(loaded), len(live))
	}

	// A release carries observations, not crawl statistics, so the two
	// crawl-cost figures a headline quotes read 0 after a reload; every
	// other byte of every headline is the live one's.
	wantHeadline := map[string]string{
		"dns": res.DNS.Headline(),
		"http": strings.Replace(res.HTTP.Headline(),
			fmt.Sprintf("crawl skipped %d by", res.HTTP.Dataset.Discarded), "crawl skipped 0 by", 1),
		"tls": strings.Replace(res.TLS.Headline(),
			fmt.Sprintf("%d CONNECT tunnels", res.TLS.Dataset.Probes), "0 CONNECT tunnels", 1),
		"monitor": res.Monitor.Headline(),
	}
	for i, got := range loaded {
		want := live[i]
		name := got.Name()
		if name != want.Name() {
			t.Fatalf("run %d loaded as %q, dumped as %q", i, name, want.Name())
		}
		gotTables, wantTables := got.Tables(), want.Tables()
		if len(gotTables) != len(wantTables) {
			t.Fatalf("%s: %d tables reloaded, %d live", name, len(gotTables), len(wantTables))
		}
		for j := range wantTables {
			if g, w := gotTables[j].String(), wantTables[j].String(); g != w {
				t.Errorf("%s: %s diverged:\n%s\nvs live\n%s", name, wantTables[j].ID, g, w)
			}
		}
		if g := got.Headline(); g != wantHeadline[name] {
			t.Errorf("%s: headline\n%s\nwant\n%s", name, g, wantHeadline[name])
		}
		if g, w := got.Overview(), want.Overview(); g != w {
			t.Errorf("%s: overview %+v, live %+v", name, g, w)
		}
		// A reloaded run writes back the files it was read from.
		for file, write := range map[string]func(io.Writer) error{
			name + ".jsonl": got.WriteDataset, geoFile(name): got.WriteGeo,
		} {
			var buf bytes.Buffer
			if err := write(&buf); err != nil {
				t.Fatalf("%s: rewriting %s: %v", name, file, err)
			}
			onDisk, err := os.ReadFile(filepath.Join(dir, file))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), onDisk) {
				t.Errorf("%s: %s rewritten from the reloaded run differs from the dump", name, file)
			}
		}
		// What a release does not carry reads empty.
		if got.Stats() != (core.Stats{}) || got.Spans() != nil || got.Manifest() != nil ||
			!reflect.DeepEqual(got.Metrics(), &metrics.Snapshot{}) {
			t.Errorf("%s: reloaded run reports crawl telemetry: stats %+v, %d spans, manifest %v, metrics %+v",
				name, got.Stats(), len(got.Spans()), got.Manifest(), got.Metrics())
		}
	}

	// An absent dataset is skipped, a dataset without its geo snapshot is an
	// error, and so is a directory with no dataset in it.
	if err := os.Remove(filepath.Join(dir, "http.jsonl")); err != nil {
		t.Fatal(err)
	}
	if loaded, err = LoadRelease(dir); err != nil || len(loaded) != len(live)-1 {
		t.Fatalf("without http.jsonl: %d runs, err %v", len(loaded), err)
	}
	if err := os.Remove(filepath.Join(dir, "geo-tls.jsonl")); err != nil {
		t.Fatal(err)
	}
	if _, err = LoadRelease(dir); err == nil || !strings.Contains(err.Error(), "geo snapshot") {
		t.Fatalf("tls.jsonl without geo-tls.jsonl: err %v", err)
	}
	if _, err = LoadRelease(t.TempDir()); err == nil {
		t.Fatal("an empty directory loaded as a release")
	}
}

func TestRunSMTPFacade(t *testing.T) {
	run, err := RunSMTP(context.Background(), Options{Seed: 2, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	s := run.Analysis.Summary()
	if s.MeasuredNodes == 0 || s.Blocked == 0 || s.Stripped == 0 {
		t.Fatalf("summary = %+v", s)
	}
	tables := run.Tables()
	if len(tables) != 1 || !strings.Contains(tables[0].String(), "port-25 blocked") {
		t.Fatalf("tables = %v", tables)
	}
}

func TestRunLongitudinalFacade(t *testing.T) {
	run, err := RunLongitudinal(context.Background(), Options{Seed: 2, Scale: 0.005}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Waves) != 2 {
		t.Fatalf("waves = %d", len(run.Waves))
	}
	tbl := run.Table().String()
	if !strings.Contains(tbl, "Wave") || !strings.Contains(tbl, "0") {
		t.Fatalf("table:\n%s", tbl)
	}
	// Wave 1 applied StandardEvolution (TMnet retired): rate must not rise.
	if run.Waves[1].HijackRate() > run.Waves[0].HijackRate()*1.05 {
		t.Fatalf("rate rose: %.3f -> %.3f", run.Waves[0].HijackRate(), run.Waves[1].HijackRate())
	}
}
