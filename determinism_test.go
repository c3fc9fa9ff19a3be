package tft

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// updateGolden rewrites testdata/golden_runs.txt from the current tree:
//
//	go test -run TestDNSRunDeterministic -update .
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_runs.txt")

const goldenRunsFile = "testdata/golden_runs.txt"

// render flattens everything a fixed seed promises to reproduce into one
// byte stream: the paper tables, the CLI headline, both dataset exports,
// the crawl stats, every counter and labeled counter of the crawl engine,
// and the manifest's tracker-derived counts. Spans, gauges, histograms and
// the manifest's wall-clock fields are deliberately excluded — span IDs
// come from a process-global counter and the rest read the wall clock or
// the runtime, so they differ between runs by construction without making
// the measurements any less reproducible.
func render(t *testing.T, r Run) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, tbl := range r.Tables() {
		buf.WriteString(tbl.String())
	}
	buf.WriteString(r.Headline())
	if err := r.WriteDataset(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteGeo(&buf); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "%+v\n", r.Stats())
	m := r.Metrics()
	for _, k := range sortedKeys(m.Counters) {
		fmt.Fprintf(&buf, "%s %d\n", k, m.Counters[k])
	}
	for _, k := range sortedKeys(m.Labeled) {
		for _, l := range sortedKeys(m.Labeled[k]) {
			fmt.Fprintf(&buf, "%s{%s} %d\n", k, l, m.Labeled[k][l])
		}
	}
	man := r.Manifest()
	fmt.Fprintf(&buf, "manifest done=%d total=%d probes=%d violations=%d failures=%d discarded=%d duplicates=%d faults=%d\n",
		man.NodesDone, man.TotalNodes, man.Probes, man.Violations,
		man.Failures, man.Discarded, man.Duplicates, man.Faults)
	return buf.Bytes()
}

// readGoldenRuns parses testdata/golden_runs.txt: one "<case> <sha256>"
// pair per line.
func readGoldenRuns(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenRunsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
			golden[name] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

// TestDNSRunDeterministic runs every experiment (and DNS under the
// lossy-links chaos profile) at a fixed seed and requires the rendered
// stream to hash to the committed golden. This is the regression gate
// behind the simclock/seededrand analyzers — any time.Now or global-RNG
// call that sneaks into the measurement path shows up here as a changed
// hash — and the proof that a refactor of the crawl spine or the Run facade
// preserved behaviour: the goldens were captured before the five drivers
// were collapsed onto one loop.
func TestDNSRunDeterministic(t *testing.T) {
	poisonRecycledBuffers(t)
	type runCase struct{ name, experiment, chaos string }
	var cases []runCase
	for _, name := range Experiments() {
		cases = append(cases, runCase{name: name, experiment: name})
	}
	cases = append(cases, runCase{name: "dns+lossy-links", experiment: "dns", chaos: "lossy-links"})

	var golden map[string]string
	if !*updateGolden {
		golden = readGoldenRuns(t)
	}
	got := make(map[string]string, len(cases))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run, err := RunExperiment(context.Background(), c.experiment,
				Options{Seed: 20160413, Scale: 0.02, Workers: 1, Chaos: c.chaos})
			if err != nil {
				t.Fatal(err)
			}
			stream := render(t, run)
			if len(stream) == 0 {
				t.Fatal("rendered report is empty; determinism check proved nothing")
			}
			got[c.name] = fmt.Sprintf("%x", sha256.Sum256(stream))
			if golden != nil && got[c.name] != golden[c.name] {
				t.Errorf("fixed-seed %s run hashes to %s, golden is %q (regenerate with -update only if the change is meant to alter measured output)",
					c.name, got[c.name], golden[c.name])
			}

			// Every session the crawl spent lands in exactly one outcome.
			man := run.Manifest()
			if sum := man.NodesDone + man.Failures + man.Faults + man.Discarded + man.Duplicates; sum != man.Sessions {
				t.Errorf("outcomes sum to %d (done %d + failures %d + faults %d + discarded %d + duplicates %d), crawl spent %d sessions",
					sum, man.NodesDone, man.Failures, man.Faults, man.Discarded, man.Duplicates, man.Sessions)
			}
			if c.chaos != "" && man.Faults == 0 {
				t.Errorf("%s injected no client-visible faults; the chaos golden proves nothing", c.chaos)
			}
		})
	}
	if *updateGolden && !t.Failed() {
		var out bytes.Buffer
		for _, c := range cases {
			fmt.Fprintf(&out, "%s %s\n", c.name, got[c.name])
		}
		if err := os.WriteFile(goldenRunsFile, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDNSShardSinksMergeCanonically is the sharding half of the
// determinism gate. A multi-worker crawl's dataset is produced by merging
// per-shard sinks; the flight recorder counts every successful probe on its
// shard independently of them. The merged dataset must hold exactly that
// many records in strictly increasing zID order — so no worker dropped,
// duplicated or reordered one. The crawl's stop point legitimately depends
// on worker interleaving (the novelty window is evaluated in completion
// order, as on a real crawl), so the invariant is merge fidelity for
// whatever set was measured, not cross-worker-count equality.
func TestDNSShardSinksMergeCanonically(t *testing.T) {
	run, err := RunDNS(context.Background(), Options{Seed: 20160413, Scale: 0.02, Workers: 7})
	if err != nil {
		t.Fatal(err)
	}
	obs := run.Dataset.Observations
	if len(obs) == 0 {
		t.Fatal("no observations; merge check proved nothing")
	}
	if done := run.Manifest().NodesDone; int64(len(obs)) != done {
		t.Fatalf("dataset has %d observations, the shards measured %d", len(obs), done)
	}
	for i := 1; i < len(obs); i++ {
		if obs[i-1].ZID >= obs[i].ZID {
			t.Fatalf("dataset order not strictly increasing at %d: %q >= %q", i, obs[i-1].ZID, obs[i].ZID)
		}
	}
}
