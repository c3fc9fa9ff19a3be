package core

import (
	"net/netip"

	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/population"
)

// TargetsFromRegistry converts a world's site registry into the
// experiment's target list.
func TargetsFromRegistry(sr *population.SiteRegistry) *TLSTargets {
	t := &TLSTargets{Popular: make(map[geo.CountryCode][]TLSSite)}
	for _, cc := range sr.Countries() {
		for _, s := range sr.Popular[cc] {
			t.Popular[cc] = append(t.Popular[cc], tlsSite(s, SitePopular))
		}
	}
	for _, s := range sr.Universities {
		t.Universities = append(t.Universities, tlsSite(s, SiteUniversity))
	}
	for _, s := range sr.Invalid {
		t.Invalid = append(t.Invalid, tlsSite(s, SiteInvalid))
	}
	return t
}

// tlsSite is one registry site as a probe target.
func tlsSite(s *population.Site, class SiteClass) TLSSite {
	return TLSSite{Host: s.Host, Addr: netip.AddrPortFrom(s.IP, 443).String(), KnownChain: s.Chain, Class: class}
}
