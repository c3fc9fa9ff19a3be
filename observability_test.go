package tft

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"github.com/tftproject/tft/internal/core"
	"github.com/tftproject/tft/internal/metrics"
	"github.com/tftproject/tft/internal/progress"
	"github.com/tftproject/tft/internal/simnet"
	"github.com/tftproject/tft/internal/trace"
)

// The observability acceptance bar: a DNS run yields at least one complete
// per-request trace tree — client probe → super proxy request → exit-node
// attempt → node-side resolve and fetch — and the Chrome trace_event
// export of those spans is structurally valid (Perfetto-loadable).
func TestRunDNSTraceChain(t *testing.T) {
	run, err := RunDNS(context.Background(), Options{Seed: 21, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	spans := run.Spans()
	if len(spans) == 0 {
		t.Fatal("run retained no spans")
	}

	byID := make(map[trace.SpanID]trace.SpanData, len(spans))
	for _, d := range spans {
		byID[d.SpanID] = d
	}
	// ancestors resolves the parent chain's names, innermost-first.
	ancestors := func(d trace.SpanData) []string {
		var names []string
		for p := d.Parent; p != 0; {
			pd, ok := byID[p]
			if !ok {
				break
			}
			names = append(names, pd.Name)
			p = pd.Parent
		}
		return names
	}
	chainOK := func(names []string) bool {
		return len(names) == 3 && names[0] == "proxy.attempt" &&
			names[1] == "proxy.get" && names[2] == "probe.dns"
	}
	fetches, resolves := 0, 0
	for _, d := range spans {
		switch d.Name {
		case "node.fetch":
			if chainOK(ancestors(d)) {
				fetches++
			}
		case "node.resolve":
			if chainOK(ancestors(d)) {
				resolves++
			}
		}
	}
	if fetches == 0 {
		t.Fatal("no node.fetch span with the full probe.dns → proxy.get → proxy.attempt chain")
	}
	if resolves == 0 {
		t.Fatal("no node.resolve span with the full chain (RemoteDNS probes must trace resolution)")
	}

	// The Chrome export of a real run's spans must be structurally valid.
	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *int64         `json:"ts"`
			Dur  *int64         `json:"dur"`
			Pid  *int           `json:"pid"`
			Tid  *uint64        `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) != len(spans) {
		t.Fatalf("exported %d events for %d spans", len(f.TraceEvents), len(spans))
	}
	for i, ev := range f.TraceEvents {
		if ev.Name == "" || ev.Ph != "X" || ev.Ts == nil || ev.Dur == nil || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event %d structurally incomplete: %+v", i, ev)
		}
		if *ev.Dur < 0 {
			t.Fatalf("event %d has negative duration: %+v", i, ev)
		}
		if ev.Args["trace_id"] == "" || ev.Args["span_id"] == "" {
			t.Fatalf("event %d missing ids: %+v", i, ev)
		}
	}
}

// The flight-recorder acceptance bar: a DNS run observed by a live Sampler
// produces at least one sample (Stop's final read guarantees it even when
// the crawl beats the interval), and the RunManifest's final counts agree
// with both the crawl-engine metrics and the run's own Stats.
func TestRunDNSFlightRecorder(t *testing.T) {
	tracker := progress.NewTracker()
	reg := metrics.NewRegistry()
	opts := Options{Seed: 21, Scale: 0.01}
	opts.Crawl.Progress = tracker
	opts.Crawl.Metrics = reg

	sampler := &progress.Sampler{
		Tracker:  tracker,
		Clock:    simnet.Real{},
		Interval: 20 * time.Millisecond,
		Metrics:  reg,
	}
	if err := sampler.Start(); err != nil {
		t.Fatal(err)
	}
	run, err := RunDNS(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sampler.Stop(); err != nil {
		t.Fatal(err)
	}

	if tracker.Snapshot().Sample == nil {
		t.Fatal("sampler published no sample (Stop must take a final one)")
	}

	man := run.Manifest()
	if man == nil {
		t.Fatal("run has no manifest")
	}
	if man.Experiment != "dns" || man.Seed != 21 || man.Scale != 0.01 {
		t.Fatalf("manifest identity = %+v", man)
	}

	snap := reg.Snapshot()
	if got := snap.Counter("crawl_sessions_total"); got != man.Sessions {
		t.Errorf("manifest sessions %d != crawl_sessions_total %d", man.Sessions, got)
	}
	if got := snap.Counter("crawl_nodes_total"); got != man.UniqueNodes {
		t.Errorf("manifest unique nodes %d != crawl_nodes_total %d", man.UniqueNodes, got)
	}
	var st core.Stats = run.Stats()
	if man.Sessions != int64(st.Sessions) || man.UniqueNodes != int64(st.UniqueNodes) {
		t.Errorf("manifest %+v disagrees with run stats %+v", man, st)
	}
	if man.NodesDone != int64(len(run.Dataset.Observations))+man.Discarded {
		t.Errorf("manifest nodes done %d != observations %d + discarded %d",
			man.NodesDone, len(run.Dataset.Observations), man.Discarded)
	}
	if man.Probes < man.NodesDone {
		t.Errorf("probes %d < nodes done %d", man.Probes, man.NodesDone)
	}
	if man.Watermarks.PeakHeapBytes == 0 {
		t.Error("manifest watermarks empty")
	}
	if man.DurationSeconds < 0 || man.FinishedAt.Before(man.StartedAt) {
		t.Errorf("manifest time range invalid: %+v", man)
	}

	// The checkpoint stream's closing line is valid JSON carrying the same
	// counts.
	var buf bytes.Buffer
	if err := man.WriteLine(&buf); err != nil {
		t.Fatal(err)
	}
	var back progress.RunManifest
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("manifest JSON invalid: %v", err)
	}
	if back.Type != "manifest" || back.Sessions != man.Sessions || back.NodesDone != man.NodesDone {
		t.Errorf("round-tripped manifest %+v != %+v", back, man)
	}

	// A second run on the same Options reuses the tracker: Begin must reset
	// the per-run counts so the new manifest doesn't double-count. (Counts
	// are compared within the run, not across runs — the concurrent stop
	// rule makes per-run totals scheduling-dependent.)
	run2, err := RunDNS(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	m2 := run2.Manifest()
	if m2.NodesDone != int64(len(run2.Dataset.Observations))+m2.Discarded {
		t.Errorf("second run nodes done %d != observations %d + discarded %d (Begin must reset shard counts)",
			m2.NodesDone, len(run2.Dataset.Observations), m2.Discarded)
	}
}
