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
	a.SetRule("d1.probe.tft-example.net", Always(webIP))
	fabric := simnet.NewFabric()
	fabric.HandleDNS(authIP, a.Handler())
	return NewResolver(ispDNSIP, fabric, func(string) (netip.Addr, bool) { return authIP, true }), a
}

// TestLookupAllocs holds one answered Lookup — query, authority, reply — to
// eight allocations: the query's wire bytes; at the authority the decoded
// message, its question name, the reply, the query-log slot and the reply's
// wire bytes; back at the resolver the decoded response and its question
// name, which the answer record shares.
func TestLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r, a := lookupRig(t)
	const name = "d1.probe.tft-example.net"
	got := testing.AllocsPerRun(200, func() {
		resp, err := r.Lookup(nodeIP, name, dnswire.TypeA)
		if err != nil || len(resp.Answers) != 1 || resp.Answers[0].A != webIP {
			t.Fatalf("lookup: %v %+v", err, resp)
		}
		a.Forget(name + ".") // as the experiments do: one log slot per lookup
	})
	if got > 8 {
		t.Fatalf("Lookup allocates %.0f times, ceiling 8", got)
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
