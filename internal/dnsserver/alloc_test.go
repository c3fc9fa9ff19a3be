package dnsserver

import (
	"net/netip"
	"testing"

	"github.com/tftproject/tft/internal/dnswire"
	"github.com/tftproject/tft/internal/simnet"
)

// lookupRig is a resolver one fabric hop from the test authority: what an
// exit node's Lookup crosses in a crawl.
func lookupRig(tb testing.TB) (*Resolver, *Authority) {
	tb.Helper()
	a := NewAuthority("probe.tft-example.net", simnet.NewVirtual(t0))
	a.SetFallback(testPolicy)
	fabric := simnet.NewFabric()
	fabric.HandleDNS(authIP, a.Handler())
	return NewResolver(ispDNSIP, fabric, func(string) (netip.Addr, bool) { return authIP, true }), a
}

// TestLookupAllocs holds one Lookup — query, authority, reply — to two
// allocations however it ends: at the authority the question's name, which
// the query log keeps, and the reply's wire bytes. The query is written into
// a pooled datagram, a name's first log entry lives in the log's map value,
// and the resolver reads the reply where it lies.
func TestLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, tc := range []struct {
		outcome, name string
		hijack        NXRewriter
		want          dnswire.Answer
	}{
		{"answered", "d1.probe.tft-example.net", nil, dnswire.Answer{RCode: dnswire.RCodeSuccess, A: webIP, TTL: 5}},
		{"refused", "d2.probe.tft-example.net", nil, dnswire.Answer{RCode: dnswire.RCodeNXDomain}},
		{"hijacked", "d2.probe.tft-example.net", StaticNX{Landing: landingIP}, dnswire.Answer{RCode: dnswire.RCodeSuccess, A: landingIP, TTL: 300}},
	} {
		r, a := lookupRig(t)
		r.Hijack = tc.hijack
		got := testing.AllocsPerRun(200, func() {
			ans, err := r.Lookup(nodeIP, tc.name, dnswire.TypeA)
			if err != nil || ans != tc.want {
				t.Fatalf("%s lookup: %+v, %v", tc.outcome, ans, err)
			}
			a.Forget(tc.name + ".") // as the experiments do: one log slot per lookup
		})
		if got > 2 {
			t.Errorf("%s Lookup allocates %.0f times, ceiling 2", tc.outcome, got)
		}
	}
}

// TestAuthorityAnswerAllocs holds the authority's side alone to its two —
// name and reply — so that a regression (a log entry or a reply that
// allocates again) is reported against the side that has it.
func TestAuthorityAnswerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	_, a := lookupRig(t)
	handle := a.Handler()
	for _, name := range []string{"d1.probe.tft-example.net", "d2.probe.tft-example.net"} {
		query, err := dnswire.AppendQuery(nil, 9, name, dnswire.TypeA)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(200, func() {
			if handle(ispDNSIP, query) == nil {
				t.Fatalf("query for %s dropped", name)
			}
			a.Forget(name + ".")
		})
		if got > 2 {
			t.Errorf("answering %s allocates %.0f times, ceiling 2", name, got)
		}
	}
}

// TestResolverHandlerAllocs holds a resolver's wire service to four
// allocations for a relayed query — the question's name, the Lookup's two,
// the reply — and two for a refused one: the name and the reply.
func TestResolverHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r, a := lookupRig(t)
	handle := r.Handler(func(src netip.Addr) bool { return src == nodeIP })
	for _, tc := range []struct {
		why     string
		src     netip.Addr
		ceiling float64
	}{
		{"relayed", nodeIP, 4},
		{"refused", superDNS, 2},
	} {
		for _, name := range []string{"d1.probe.tft-example.net", "d2.probe.tft-example.net"} {
			query, err := dnswire.AppendQuery(nil, 9, name, dnswire.TypeA)
			if err != nil {
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(200, func() {
				if handle(tc.src, query) == nil {
					t.Fatalf("%s query for %s dropped", tc.why, name)
				}
				a.Forget(name + ".")
			})
			if got > tc.ceiling {
				t.Errorf("%s query for %s allocates %.0f times, ceiling %.0f", tc.why, name, got, tc.ceiling)
			}
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	r, a := lookupRig(b)
	const name = "d1.probe.tft-example.net"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Lookup(nodeIP, name, dnswire.TypeA); err != nil {
			b.Fatal(err)
		}
		a.Forget(name + ".")
	}
}
