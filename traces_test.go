package tft

import (
	"context"
	"strconv"
	"testing"

	"github.com/tftproject/tft/internal/core"
	"github.com/tftproject/tft/internal/trace"
)

// TestTracesAreTheSample holds the tracer to the crawl's sample: the
// sessions traced are exactly those whose number is a multiple of
// DefaultTraceSample, each traced whole — every span recorded has its
// parent and its trace's client root — and no other session leaves a span.
// A span of an unsampled session would show as a root the service started
// (the proxy's, the exit node's): the mark was lost on the way.
func TestTracesAreTheSample(t *testing.T) {
	crawls := []struct{ name, experiment, chaos string }{
		{"dns", "dns", ""}, {"dns+lossy-links", "dns", "lossy-links"},
		{"http", "http", ""}, {"tls", "tls", ""}, {"monitor", "monitor", ""},
	}
	for _, c := range crawls {
		t.Run(c.name, func(t *testing.T) {
			tracer := trace.New(nil, 0)
			r, err := RunExperiment(context.Background(), c.experiment, Options{Seed: 20160413, Scale: 0.01, Workers: 2,
				Chaos: c.chaos, Crawl: core.CrawlConfig{Tracer: tracer}})
			if err != nil {
				t.Fatal(err)
			}
			spans := r.Spans()
			if int64(len(spans)) != tracer.Total() {
				t.Fatalf("the ring kept %d of the %d spans recorded; the check needs every one", len(spans), tracer.Total())
			}
			byID := make(map[trace.SpanID]bool, len(spans))
			for _, d := range spans {
				byID[d.SpanID] = true
			}
			sessions := map[int]bool{}
			rooted := map[trace.TraceID]bool{}
			for _, d := range spans {
				switch {
				case d.Parent != 0:
					if !byID[d.Parent] {
						t.Fatalf("span %s of trace %v recorded without its parent", d.Name, d.TraceID)
					}
				case d.Kind != trace.KindClient:
					t.Fatalf("%s span %s roots trace %v: a hop traced an unsampled session", d.Kind, d.Name, d.TraceID)
				default:
					n, err := strconv.Atoi(d.Str("session")[1:])
					if err != nil {
						t.Fatal(err)
					}
					if n%core.DefaultTraceSample != 0 || sessions[n] {
						t.Fatalf("session %d traced: only multiples of %d are, once each", n, core.DefaultTraceSample)
					}
					sessions[n], rooted[d.TraceID] = true, true
				}
			}
			for _, d := range spans {
				if !rooted[d.TraceID] {
					t.Fatalf("span %s of trace %v recorded without its root", d.Name, d.TraceID)
				}
			}
			man := r.Manifest()
			if want := man.Sessions / core.DefaultTraceSample; int64(len(sessions)) != want || want == 0 {
				t.Errorf("traced %d sessions of %d; want every %dth, %d", len(sessions), man.Sessions, core.DefaultTraceSample, want)
			}
			t.Logf("%d sessions: %d traced, %d spans", man.Sessions, len(sessions), len(spans))
		})
	}
}
