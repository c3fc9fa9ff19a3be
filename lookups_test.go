package tft

import (
	"context"
	"net/netip"
	"sync"
	"testing"

	"github.com/tftproject/tft/internal/core"
	"github.com/tftproject/tft/internal/population"
)

// lookupCase is one crawl whose super-proxy lookups are counted: how its
// world is built, how the driver runs on it, and whether its probes name
// hosts at all (the TLS and SMTP crawls CONNECT to IP literals).
type lookupCase struct {
	name     string
	build    func(seed uint64, scale float64) (*population.World, error)
	crawl    func(ctx context.Context, w *population.World, o Options) error
	resolves bool
}

func lookupCaseOf[D crawlDataset, A tableSet](e *experiment[D, A], resolves bool) lookupCase {
	return lookupCase{name: e.name, build: e.build, resolves: resolves,
		crawl: func(ctx context.Context, w *population.World, o Options) error {
			_, err := e.driver(w, o).Run(ctx)
			return err
		}}
}

// TestSuperProxyNeverResolvesAHostTwice pins the traffic fact the super
// proxy's design rests on: every probe rides a name unique to its session
// (§4.1, §5.1, §7.1), so within a crawl — and across the waves of a
// longitudinal campaign, whose zones are wave-scoped — the super proxy is
// never asked about a host it has already looked up, and resolving upstream
// every time costs nothing a cache could save. The day an experiment
// repeats hosts this fails, and that is the day a cache would have traffic.
func TestSuperProxyNeverResolvesAHostTwice(t *testing.T) {
	cases := []lookupCase{
		lookupCaseOf(dnsExperiment, true),
		lookupCaseOf(httpExperiment, true),
		lookupCaseOf(tlsExperiment, false),
		lookupCaseOf(monitorExperiment, true),
		lookupCaseOf(smtpExperiment, false),
	}
	if len(cases) != len(experimentRegistry) {
		t.Fatalf("%d crawls counted, %d experiments registered", len(cases), len(experimentRegistry))
	}
	cases = append(cases, lookupCase{name: "longitudinal", build: dnsExperiment.build, resolves: true,
		crawl: func(ctx context.Context, w *population.World, o Options) error {
			_, err := (&core.LongitudinalDNS{Experiment: dnsDriver(w, o), Clock: w.Clock, Waves: 2,
				BetweenWaves: population.StandardEvolution(w)}).Run(ctx)
			return err
		}})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := Options{Seed: 20160413, Scale: 0.005, Workers: 2}.withDefaults()
			w, err := o.newWorld(c.build)
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			lookups := map[string]int{}
			upstream := w.Super.Resolver.Upstream
			w.Super.Resolver.Upstream = func(name string) (netip.Addr, bool) {
				mu.Lock()
				lookups[name]++
				mu.Unlock()
				return upstream(name)
			}
			if err := c.crawl(context.Background(), w, o); err != nil {
				t.Fatal(err)
			}
			if resolved := len(lookups) > 0; resolved != c.resolves {
				t.Errorf("the super proxy looked up %d hosts, want some: %v", len(lookups), c.resolves)
			}
			for name, n := range lookups {
				if n > 1 {
					t.Errorf("%s was looked up %d times", name, n)
				}
			}
		})
	}
}
