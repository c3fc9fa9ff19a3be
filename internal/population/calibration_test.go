package population_test

import (
	"testing"

	"github.com/tftproject/tft/internal/analysis"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/population"
)

// calibrationSeeds are the nine seeds of the known-defect sweep: the
// default and 1-8.
var calibrationSeeds = []uint64{20160413, 1, 2, 3, 4, 5, 6, 7, 8}

// TestDNSWorldCountriesAcrossSeeds holds the DNS world's truth, before any
// crawl, to two of the paper's marginals at every seed: Table 2's 167
// countries, and Table 3's top row as the highest hijack ratio of any
// country large enough to be ranked. A country outside Table 3 above that
// ratio, plus a band for small-country noise, is one the builders filled
// with hijacked nodes alone (buildPublicResolvers and buildMiscPathHijacks
// draw countries from the whole registry; fillCountries must top up every
// country they reach).
func TestDNSWorldCountriesAcrossSeeds(t *testing.T) {
	const scale, band = 0.05, 0.10
	minNodes := analysis.Config{Scale: scale}.MinNodesPerCountry()
	top := population.Table3[0]
	topRatio := float64(top.Hijacked) / float64(top.Total)
	named := make(map[geo.CountryCode]bool)
	for _, row := range population.Table3 {
		named[row.Country] = true
	}
	for _, seed := range calibrationSeeds {
		w, err := population.BuildDNSWorld(seed, scale)
		if err != nil {
			t.Fatal(err)
		}
		total := make(map[geo.CountryCode]int)
		hijacked := make(map[geo.CountryCode]int)
		for _, tr := range w.Truths() {
			total[tr.Country]++
			if tr.DNSHijacker != "" {
				hijacked[tr.Country]++
			}
		}
		if len(total) != population.DNSTotalCountries {
			t.Errorf("seed %d: %d countries, want Table 2's %d", seed, len(total), population.DNSTotalCountries)
		}
		worst, worstRatio := geo.CountryCode(""), 0.0
		for cc, n := range total {
			if named[cc] || n < minNodes {
				continue
			}
			if r := float64(hijacked[cc]) / float64(n); r > worstRatio {
				worst, worstRatio = cc, r
			}
		}
		t.Logf("seed %d: %d countries; highest unnamed ratio %s %.1f%% (%d of %d)", seed, len(total), worst, 100*worstRatio, hijacked[worst], total[worst])
		if worstRatio > topRatio+band {
			t.Errorf("seed %d: %s has %d of %d nodes hijacked (%.1f%%), above Table 3's top %s (%.1f%%)",
				seed, worst, hijacked[worst], total[worst], 100*worstRatio, top.Country, 100*topRatio)
		}
	}
}
