package geo_test

import (
	"math/rand"
	"testing"

	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/population"
)

// TestLookupAgreesWithScanOnEveryWorld holds the flattened table to the
// scan it replaced on every world's prefixes, at each prefix's boundaries
// and at random addresses: no world announces a prefix shorter than /8,
// where the scan falls short.
func TestLookupAgreesWithScanOnEveryWorld(t *testing.T) {
	builds := map[string]func(uint64, float64) (*population.World, error){
		"dns": population.BuildDNSWorld, "http": population.BuildHTTPWorld, "tls": population.BuildTLSWorld,
		"monitor": population.BuildMonitorWorld, "smtp": population.BuildSMTPWorld,
	}
	for name, build := range builds {
		w, err := build(20160413, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		addrs := geo.ProbeAddrs(w.Geo, rand.New(rand.NewSource(7)), 20000)
		matched := 0
		for _, ip := range addrs {
			gotASN, gotOK := w.Geo.LookupAS(ip)
			wantASN, wantOK := geo.ScanLookup(w.Geo, ip)
			if gotASN != wantASN || gotOK != wantOK {
				t.Fatalf("%s: LookupAS(%v) = AS%d, %v; the scan gives AS%d, %v", name, ip, gotASN, gotOK, wantASN, wantOK)
			}
			if gotOK {
				matched++
			}
		}
		if matched == 0 || matched == len(addrs) {
			t.Fatalf("%s: %d of %d addresses matched; the check needs hits and misses", name, matched, len(addrs))
		}
	}
}
