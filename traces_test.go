package tft

import (
	"context"
	"strconv"
	"testing"

	"github.com/tftproject/tft/internal/core"
	"github.com/tftproject/tft/internal/trace"
)

// TestViolatorsKeepTheirTraces holds the tracer's retention policy to a
// crawl: every node the release gives a violation verdict has its root span
// (found by zid) and its whole span tree retained, and so does every
// failed, faulted and sampled session and every session the super proxy
// retried; any other session leaves no span. Monitoring decides its
// verdicts after its watch window, long after each probe's root has ended,
// so its monitored nodes are kept only as the sample keeps them.
func TestViolatorsKeepTheirTraces(t *testing.T) {
	ctx := context.Background()
	opts := func(chaos string) Options { return Options{Seed: 20160413, Scale: 0.01, Workers: 2, Chaos: chaos} }
	type crawl struct {
		run       Run
		tracer    *trace.Tracer
		violators []string // the release's violating nodes
	}
	crawls := map[string]func() (crawl, error){
		"dns": func() (crawl, error) {
			r, err := RunDNS(ctx, opts(""))
			c := crawl{run: r, tracer: r.Opts.Crawl.Tracer}
			for _, o := range r.Dataset.Observations {
				if o.Hijacked {
					c.violators = append(c.violators, o.ZID)
				}
			}
			return c, err
		},
		"dns+lossy-links": func() (crawl, error) {
			r, err := RunDNS(ctx, opts("lossy-links"))
			c := crawl{run: r, tracer: r.Opts.Crawl.Tracer}
			for _, o := range r.Dataset.Observations {
				if o.Hijacked {
					c.violators = append(c.violators, o.ZID)
				}
			}
			return c, err
		},
		"http": func() (crawl, error) {
			r, err := RunHTTP(ctx, opts(""))
			c := crawl{run: r, tracer: r.Opts.Crawl.Tracer}
			for _, o := range r.Dataset.Observations {
				if o.AnyModified() {
					c.violators = append(c.violators, o.ZID)
				}
			}
			return c, err
		},
		"tls": func() (crawl, error) {
			r, err := RunTLS(ctx, opts(""))
			c := crawl{run: r, tracer: r.Opts.Crawl.Tracer}
			for _, o := range r.Dataset.Observations {
				if o.AnyReplaced() {
					c.violators = append(c.violators, o.ZID)
				}
			}
			return c, err
		},
		"monitor": func() (crawl, error) {
			r, err := RunMonitor(ctx, opts(""))
			return crawl{run: r, tracer: r.Opts.Crawl.Tracer}, err
		},
	}
	retried := map[string]bool{"peer_unhealthy": true, "peer_disconnected": true, "peer_connect_timeout": true}
	for name, do := range crawls {
		t.Run(name, func(t *testing.T) {
			c, err := do()
			if err != nil {
				t.Fatal(err)
			}
			spans := c.run.Spans()
			if int64(len(spans)) != c.tracer.Total() {
				t.Fatalf("the ring kept %d of the %d spans committed; the check needs every one", len(spans), c.tracer.Total())
			}
			byID := make(map[trace.SpanID]bool, len(spans))
			traces := map[trace.TraceID][]trace.SpanData{}
			for _, d := range spans {
				byID[d.SpanID] = true
				traces[d.TraceID] = append(traces[d.TraceID], d)
			}
			roots := map[string]trace.SpanData{} // by zid
			var violating, failed, faulted, sampled int64
			for id, tr := range traces {
				var root *trace.SpanData
				retry := false
				for i, d := range tr {
					if d.Parent != 0 && !byID[d.Parent] {
						t.Fatalf("span %s of trace %v kept without its parent", d.Name, id)
					}
					if d.Kind == trace.KindClient {
						root = &tr[i]
					}
					retry = retry || d.Kind == trace.KindAttempt && retried[d.Err]
				}
				if root == nil {
					t.Fatalf("trace %v kept as %d spans without its root", id, len(tr))
				}
				n, err := strconv.Atoi(root.Str("session")[1:])
				if err != nil {
					t.Fatal(err)
				}
				keep := retry
				if n%core.DefaultTraceSample == 0 {
					sampled, keep = sampled+1, true
				}
				switch {
				case root.Str("violation") != "":
					violating, keep = violating+1, true
					roots[root.Str("zid")] = *root
				case root.Str("outcome") == "failed":
					failed, keep = failed+1, true
				case root.Str("outcome") == "faulted":
					faulted, keep = faulted+1, true
				}
				if !keep {
					t.Fatalf("clean, unsampled, unretried session %s kept %d spans", root.Str("session"), len(tr))
				}
			}
			man := c.run.Manifest()
			if sampled != man.Sessions/core.DefaultTraceSample || failed != man.Failures || faulted != man.Faults {
				t.Errorf("kept %d sampled, %d failed and %d faulted sessions; the crawl had %d, %d and %d",
					sampled, failed, faulted, man.Sessions/core.DefaultTraceSample, man.Failures, man.Faults)
			}
			if len(c.violators) != int(violating) {
				t.Errorf("kept %d violating sessions, the release has %d violators", violating, len(c.violators))
			}
			for _, zid := range c.violators {
				if _, ok := roots[zid]; !ok {
					t.Errorf("violator %s has no root span", zid)
				}
			}
			if name == "dns+lossy-links" && faulted == 0 {
				t.Error("lossy-links faulted no probe; the faulted check proves nothing")
			}
			t.Logf("%d sessions: %d violating, %d failed, %d faulted, %d sampled; %d traces, %d spans kept, %d dropped",
				man.Sessions, violating, failed, faulted, sampled, len(traces), len(spans), c.tracer.Discarded())
		})
	}
}
