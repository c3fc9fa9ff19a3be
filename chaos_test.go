package tft

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"github.com/tftproject/tft/internal/core"
)

// chaosOpts is the fixed-seed configuration the chaos soaks run under; a
// single worker keeps the crawl's completion order deterministic so the
// byte-identity check is exact, matching TestDNSRunDeterministic.
func chaosOpts(profile string) Options {
	return Options{Seed: 20160413, Scale: 0.02, Workers: 1, Chaos: profile}
}

// TestChaosDNSSoakDeterministic is the chaos plane's end-to-end gate: a
// fixed-seed DNS crawl under the lossy-links profile (client-visible faults
// on every port) must actually lose probes to injected faults, exclude them
// from the violation denominator rather than misclassify them, keep the
// stall watchdog silent, and — run twice — produce byte-identical tables,
// datasets, and stats. Any wall-clock leak or unseeded draw in the fault
// plane or the breaker shows up here as a diff.
func TestChaosDNSSoakDeterministic(t *testing.T) {
	opts := chaosOpts("lossy-links")
	first, err := RunDNS(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunDNS(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	a, b := render(t, first), render(t, second)
	if !bytes.Equal(a, b) {
		t.Fatalf("fixed-seed chaos runs diverged:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	if len(a) == 0 {
		t.Fatal("rendered report is empty; determinism check proved nothing")
	}

	st := first.Stats()
	if st.Faulted == 0 {
		t.Fatal("lossy-links soak injected no client-visible faults; the chaos plane is not armed")
	}
	man := first.Manifest()
	if man.Faults != int64(st.Faulted) {
		t.Fatalf("manifest faults = %d, stats faulted = %d", man.Faults, st.Faulted)
	}
	if man.Stalls != 0 {
		t.Fatalf("stall watchdog fired %d times under chaos", man.Stalls)
	}
	if !strings.Contains(first.Headline(), "error budget") {
		t.Fatalf("headline missing the error-budget line:\n%s", first.Headline())
	}

	// Faulted probes must be excluded, not misclassified: the hijack rate
	// under chaos stays within a small tolerance of the fault-free baseline
	// (the surviving sample is a random subset of the same population).
	baseline, err := RunDNS(context.Background(), chaosOpts(""))
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Stats().Faulted != 0 {
		t.Fatalf("fault-free baseline reports %d faulted probes", baseline.Stats().Faulted)
	}
	got := first.Analysis.Summary().HijackPct
	want := baseline.Analysis.Summary().HijackPct
	if diff := math.Abs(got - want); diff > 2.0 {
		t.Fatalf("hijack rate under chaos %.2f%% vs baseline %.2f%% (|diff| %.2f > 2.0pp): faulted probes are skewing the rate", got, want, diff)
	}
}

// TestChaosHTTPSoak drives the HTTP experiment under the slow-network
// profile (trickle + stalls on every stream). The run must complete without
// hanging, report its error budget, and reproduce byte-identically under
// the same seed.
func TestChaosHTTPSoak(t *testing.T) {
	opts := chaosOpts("slow-network")
	render := func(r *HTTPRun) []byte {
		var buf bytes.Buffer
		for _, tbl := range r.Tables() {
			buf.WriteString(tbl.String())
		}
		buf.WriteString(r.Headline())
		if err := r.WriteDataset(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first, err := RunHTTP(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunHTTP(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	a, b := render(first), render(second)
	if !bytes.Equal(a, b) {
		t.Fatalf("fixed-seed chaos runs diverged:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	if first.Stats().Faulted == 0 {
		t.Fatal("slow-network soak injected no client-visible faults")
	}
	if man := first.Manifest(); man.Stalls != 0 {
		t.Fatalf("stall watchdog fired %d times under chaos", man.Stalls)
	}
}

// TestChaosHTTPFailuresAreNoViolation: under flaky-exits a node's fetches
// fail after its first object (its exit drops out, or the session lands on
// another node), and a failed object is no evidence of tampering. Every node
// the crawl counts as violating must have an object that came back
// modified, blocked or empty.
func TestChaosHTTPFailuresAreNoViolation(t *testing.T) {
	r, err := RunHTTP(context.Background(), chaosOpts("flaky-exits"))
	if err != nil {
		t.Fatal(err)
	}
	tampered, failed := 0, 0
	for _, o := range r.Dataset.Observations {
		var saw [core.ObjError + 1]bool
		for _, obj := range o.Objects {
			saw[obj.Outcome] = true
		}
		if saw[core.ObjModified] || saw[core.ObjBlocked] || saw[core.ObjEmpty] {
			tampered++
		} else if saw[core.ObjError] {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no node kept a failed object: the profile tested nothing")
	}
	if got := r.Manifest().Violations; got != int64(tampered) {
		t.Fatalf("%d nodes counted as violating, %d with a modified, blocked or empty object (%d more with failed objects only)",
			got, tampered, failed)
	}
}

// TestChaosUnknownProfile: a typo in -chaos must fail fast with the valid
// profile names, not run fault-free and silently report a clean campaign.
func TestChaosUnknownProfile(t *testing.T) {
	_, err := RunDNS(context.Background(), chaosOpts("flaky-links"))
	if err == nil {
		t.Fatal("unknown chaos profile accepted")
	}
	if !strings.Contains(err.Error(), "flaky-links") || !strings.Contains(err.Error(), "lossy-links") {
		t.Fatalf("error does not name the bad profile and the valid ones: %v", err)
	}
}
