package tft

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/tftproject/tft/internal/analysis"
)

// renderDNSAnalysis flattens everything a DNS aggregate promises to
// reproduce: the three paper tables and the headline summary.
func renderDNSAnalysis(a *analysis.DNSAnalysis) []byte {
	var buf bytes.Buffer
	_, t3 := a.Table3(10)
	_, t4 := a.Table4()
	_, t5 := a.Table5()
	buf.WriteString(t3.String())
	buf.WriteString(t4.String())
	buf.WriteString(t5.String())
	fmt.Fprintf(&buf, "%+v\n", a.Summary())
	return buf.Bytes()
}

// TestDNSMergePartialsMatchUnsharded is the satellite property test: for a
// fixed seed, splitting the observation stream round-robin across K
// partial aggregates and folding them back with Merge renders tables
// byte-identical to the unsharded aggregate, for K in {1, 2, 7}.
func TestDNSMergePartialsMatchUnsharded(t *testing.T) {
	run, err := RunDNS(context.Background(), Options{Seed: 20160413, Scale: 0.02, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := run.Opts.cfg()
	want := renderDNSAnalysis(analysis.AnalyzeDNS(cfg, run.World.Geo, run.Dataset))
	if len(want) == 0 {
		t.Fatal("unsharded render is empty; property test proved nothing")
	}
	for _, k := range []int{1, 2, 7} {
		shards := make([]*analysis.DNSAnalysis, k)
		for i := range shards {
			shards[i] = analysis.NewDNSAnalysis(cfg, run.World.Geo)
		}
		for i, o := range run.Dataset.Observations {
			shards[i%k].Observe(o)
		}
		merged := shards[0]
		for _, s := range shards[1:] {
			merged.Merge(s)
		}
		if got := renderDNSAnalysis(merged); !bytes.Equal(want, got) {
			t.Fatalf("K=%d merged render diverged from unsharded:\n--- unsharded ---\n%s\n--- merged ---\n%s",
				k, want, got)
		}
	}
}

// TestExperimentRegistry pins the registry surface: paper-order names,
// alias resolution, generated descriptions, and the unknown-name error.
func TestExperimentRegistry(t *testing.T) {
	want := []string{"dns", "http", "tls", "monitor", "smtp"}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("Experiments() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Experiments() = %v, want %v", got, want)
		}
		if DescribeExperiment(want[i]) == "" {
			t.Errorf("DescribeExperiment(%q) is empty", want[i])
		}
	}
	for alias, canonical := range map[string]string{"https": "tls", "monitoring": "monitor"} {
		if DescribeExperiment(alias) != DescribeExperiment(canonical) {
			t.Errorf("alias %q does not resolve to %q", alias, canonical)
		}
	}
	if _, err := RunExperiment(context.Background(), "nope", Options{}); !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("unknown name error = %v, want ErrUnknownExperiment", err)
	}
}
