package population

import (
	"fmt"
	"net/netip"
	"sort"

	"github.com/tftproject/tft/internal/dnsserver"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/middlebox"
)

// BuildDNSWorld assembles the §4 world: 753k nodes (at scale 1.0) across
// 167 countries whose resolver assignments and hijack behaviours are
// calibrated to Tables 3–5.
func BuildDNSWorld(seed uint64, scale float64) (*World, error) {
	w, err := newWorld(seed, scale, "dns")
	if err != nil {
		return nil, err
	}
	b := &dnsBuilder{World: w,
		total:   make(map[geo.CountryCode]int),
		hijack:  make(map[geo.CountryCode]int),
		asPools: w.newASPools(asCapacity),
	}
	b.buildISPGroups()
	b.buildPathOnlyISPs()
	b.buildPublicResolvers()
	b.buildSoftwareHijackers()
	b.buildMiscPathHijacks()
	b.buildBeninCluster()
	b.fillCountries()
	return w, nil
}

// dnsBuilder carries the running per-country tallies the fill step needs.
type dnsBuilder struct {
	*World
	asPools
	total  map[geo.CountryCode]int
	hijack map[geo.CountryCode]int
	misc   int // counter for generic landing domains
}

// note updates the tallies after adding a node.
func (b *dnsBuilder) note(cc geo.CountryCode, hijacked bool) {
	b.total[cc]++
	if hijacked {
		b.hijack[cc]++
	}
}

// buildISPGroups instantiates Table 4: ISPs whose resolvers hijack, plus
// their Table 5 on-path hijacking of Google-DNS users.
func (b *dnsBuilder) buildISPGroups() {
	for _, g := range Table4 {
		org := b.namedOrg(g.OrgID, g.ISP, g.Country)
		// Each ISP operates a few ASes; TalkTalk famously three (§4.3.3).
		nASes := 1 + b.scaled(g.Nodes)/1200
		if nASes > 4 {
			nASes = 4
		}
		asns := make([]geo.ASN, nASes)
		for i := range asns {
			asns[i] = b.newAS(org, false)
		}

		page := middlebox.LandingSpec{
			Operator:        g.ISP,
			RedirectURL:     "http://" + g.LandingDomain + "/search",
			SharedAppliance: g.SharedAppliance,
			Tagline:         g.Tagline,
			AdCount:         4,
		}.Render()
		landing := b.landingHost(g.LandingDomain, asns[0], page)

		nServers := b.scaled(g.Servers)
		servers := make([]*dnsserver.Resolver, nServers)
		for i := range servers {
			servers[i] = b.ispResolver(asns[i%len(asns)], landing)
		}
		honest := b.ispResolver(asns[0], netip.Addr{})

		nNodes := b.scaled(g.Nodes)
		for i := 0; i < nNodes; i++ {
			asn := asns[i%len(asns)]
			// A small share of subscribers opted out (or use a secondary
			// honest server), keeping per-server hijack ratios near but
			// below 100% as the paper observed.
			if i%37 == 36 {
				b.addNode(g.Country, asn, honest, nil)
				b.note(g.Country, false)
				continue
			}
			n := b.addNode(g.Country, asn, servers[i%len(servers)], nil)
			b.labels(n).DNSHijacker = "isp:" + g.ISP
			b.note(g.Country, true)
		}

		// Table 5: the ISP's transparent DNS proxy also hijacks subscribers
		// who configured Google DNS.
		nPath := 0
		if g.PathNodes > 0 {
			nPath = b.scaled(g.PathNodes)
		}
		for i := 0; i < nPath; i++ {
			asn := asns[i%min(len(asns), max(1, g.PathASNs))]
			path := &middlebox.Path{NXLanding: landing}
			n := b.addNode(g.Country, asn, b.Google, path)
			b.labels(n).DNSHijacker = "path:" + g.ISP
			b.note(g.Country, true)
		}
	}
}

// buildPathOnlyISPs instantiates Table 5's ISP rows without Table 4
// presence: the ISP's transparent DNS proxy hijacks Google-DNS users even
// though its own resolvers were never caught doing so.
func (b *dnsBuilder) buildPathOnlyISPs() {
	for _, g := range PathOnlyISPs {
		org := b.namedOrg(g.OrgID, g.ISP, g.Country)
		asn := b.newAS(org, false)
		page := middlebox.LandingSpec{
			Operator:    g.ISP,
			RedirectURL: "http://" + g.LandingDomain + "/portal",
			AdCount:     4,
		}.Render()
		landing := b.landingHost(g.LandingDomain, asn, page)
		n := b.scaled(g.Nodes)
		for i := 0; i < n; i++ {
			path := &middlebox.Path{NXLanding: landing}
			node := b.addNode(g.Country, asn, b.Google, path)
			b.labels(node).DNSHijacker = "path:" + g.ISP
			b.note(g.Country, true)
		}
	}
}

// buildPublicResolvers instantiates §4.3.2: hijacking public resolver
// operators plus the honest public-resolver long tail. Public resolvers are
// identified by serving nodes in >2 countries.
func (b *dnsBuilder) buildPublicResolvers() {
	for _, g := range PublicHijackers {
		org := b.namedOrg(g.OrgID, g.Org, g.Country)
		asn := b.newAS(org, false)
		page := middlebox.LandingSpec{
			Operator:    g.Org,
			RedirectURL: "http://" + g.LandingDomain + "/results",
			AdCount:     6,
		}.Render()
		landing := b.landingHost(g.LandingDomain, asn, page)

		nServers := b.scaled(g.Servers)
		nNodes := b.scaled(g.Nodes)
		// Each server must be observed from >2 countries or the §4.3.2
		// public-resolver heuristic cannot fire; guarantee at least four
		// nodes per server spanning four countries.
		perServer := max(4, nNodes/nServers)
		countries := b.pickCountries(6, nil)
		for si := 0; si < nServers; si++ {
			server := b.publicResolver(asn, landing)
			for i := 0; i < perServer; i++ {
				cc := countries[(si+i)%len(countries)]
				n := b.addNode(cc, b.bgAS(cc), server, nil)
				b.labels(n).DNSHijacker = "public:" + g.Org
				b.note(cc, true)
			}
		}
	}

	// Honest public resolvers: each serving ~12 nodes from several
	// countries (so the multi-country heuristic classifies them public).
	// At tiny scales the named hijacker groups are floored, so the honest
	// population is floored proportionally to keep hijacking a small
	// minority of open resolvers (the §4.3.2 shape); the inflated servers
	// carry fewer nodes each to limit the distortion.
	hijackServers := 0
	for _, g := range PublicHijackers {
		hijackServers += b.scaled(g.Servers)
	}
	org := b.namedOrg("pub-honest", "Assorted Public DNS", "US")
	asn := b.newAS(org, false)
	nServers := b.scaledBg(HonestPublicResolvers)
	nodesEach := 12
	if floor := 10 * hijackServers; nServers < floor {
		nServers = floor
		nodesEach = 4
	}
	countries := b.pickCountries(12, nil)
	for s := 0; s < nServers; s++ {
		r := b.publicResolver(asn, netip.Addr{})
		for i := 0; i < nodesEach; i++ {
			cc := countries[(s+i)%len(countries)]
			b.addNode(cc, b.bgAS(cc), r, nil)
			b.note(cc, false)
		}
	}
}

// buildSoftwareHijackers instantiates Table 5's shaded rows: AV software
// and malware rewriting NXDOMAIN on the host, visible because the nodes use
// Google DNS yet still receive hijacked answers spread across many ASes and
// countries.
func (b *dnsBuilder) buildSoftwareHijackers() {
	adOrg := b.namedOrg("ad-networks", "Assorted Ad Networks", "US")
	adASN := b.newAS(adOrg, false)
	for _, g := range SoftwareHijackers {
		page := middlebox.LandingSpec{
			Operator:    g.Product,
			RedirectURL: "http://" + g.LandingDomain + "/safe-search",
			AdCount:     2,
		}.Render()
		landing := b.landingHost(g.LandingDomain, adASN, page)
		countries := b.pickCountries(g.Countries, nil)
		nNodes := b.scaled(g.Nodes)
		for i := 0; i < nNodes; i++ {
			cc := countries[i%len(countries)]
			path := &middlebox.Path{NXLanding: landing}
			n := b.addNode(cc, b.bgAS(cc), b.Google, path)
			b.labels(n).DNSHijacker = "software:" + g.Product
			b.note(cc, true)
		}
	}
}

// buildMiscPathHijacks covers the remaining Google-DNS hijack cases: many
// distinct landing domains each seen on fewer than five nodes.
func (b *dnsBuilder) buildMiscPathHijacks() {
	adOrg := geo.OrgID("ad-networks")
	asns := b.Geo.ASesOf(adOrg)
	if len(asns) == 0 {
		adOrg = b.namedOrg("ad-networks", "Assorted Ad Networks", "US")
		asns = []geo.ASN{b.newAS(adOrg, false)}
	}
	nNodes := b.scaledBg(MiscPathHijackNodes)
	countries := b.pickCountries(30, nil)
	for i := 0; i < nNodes; i++ {
		b.misc++
		domain := fmt.Sprintf("ads%03d.nxmonetize.example", b.misc%120)
		page := middlebox.LandingSpec{
			Operator:    "misc ad network",
			RedirectURL: "http://" + domain + "/serve",
			AdCount:     3,
		}.Render()
		landing := b.landingHost(domain, asns[0], page)
		cc := countries[i%len(countries)]
		path := &middlebox.Path{NXLanding: landing}
		n := b.addNode(cc, b.bgAS(cc), b.Google, path)
		b.labels(n).DNSHijacker = "software:misc"
		b.note(cc, true)
	}
}

// buildBeninCluster reproduces footnote 9: OPT Benin's AS with 99% of nodes
// on Google DNS.
func (b *dnsBuilder) buildBeninCluster() {
	org := b.namedOrg(BeninGoogleAS.Org, "OPT Benin", "BJ")
	asn := b.namedAS(BeninGoogleAS.ASN, org, false)
	honest := b.ispResolver(asn, netip.Addr{})
	total := b.scaled(BeninGoogleAS.Total)
	google := b.scaled(BeninGoogleAS.GoogleNodes)
	if google > total {
		google = total
	}
	for i := 0; i < total; i++ {
		if i < google {
			b.addNode("BJ", asn, b.Google, nil)
		} else {
			b.addNode("BJ", asn, honest, nil)
		}
		b.note("BJ", false)
	}
}

// fillCountries tops up every country to its Table 3 target (or its share
// of the rest-of-world mass), adding below-threshold hijacking servers to
// hit the hijack budgets and honest nodes for the rest.
func (b *dnsBuilder) fillCountries() {
	named := make(map[geo.CountryCode]bool)
	for _, row := range Table3 {
		named[row.Country] = true
	}
	for _, row := range Table3 {
		b.fillCountry(row.Country, b.scaled(row.Total), b.scaled(row.Hijacked))
	}

	// Countries hosting Table 4 ISPs without a Table 3 row: dilute their
	// named hijackers with clean background mass (no extra hijacking).
	// Sorted iteration keeps world generation deterministic.
	extras := make([]geo.CountryCode, 0, len(ExtraCountryTotals))
	for cc := range ExtraCountryTotals {
		extras = append(extras, cc)
	}
	sort.Slice(extras, func(i, j int) bool { return extras[i] < extras[j] })
	for _, cc := range extras {
		named[cc] = true
		b.fillCountry(cc, b.scaledBg(ExtraCountryTotals[cc]), b.hijack[cc])
	}

	// Rest of world: remaining node and hijack mass over the remaining
	// countries, weighted harmonically so country sizes vary.
	var namedTotal, namedHijack int
	for _, row := range Table3 {
		namedTotal += row.Total
		namedHijack += row.Hijacked
	}
	for _, total := range ExtraCountryTotals {
		namedTotal += total
	}
	restTotal := b.scaledBg(DNSTotalNodes - namedTotal)
	restHijack := b.scaledBg(DNSHijackTotal - namedHijack)
	nRest := DNSTotalCountries - len(named)
	// The public resolvers and the misc path hijacks drew their countries
	// from the whole registry, so some unnamed countries already hold
	// hijacked nodes: they come first, and get their honest fill, and
	// pickCountries supplies only the remainder.
	var rest []geo.CountryCode
	for _, c := range geo.Countries {
		if !named[c.Code] && b.total[c.Code] > 0 {
			rest = append(rest, c.Code)
			named[c.Code] = true
		}
	}
	rest = append(rest, b.pickCountries(nRest-len(rest), named)...)
	var weightSum float64
	for i := range rest {
		weightSum += 1 / float64(i+3)
	}
	for i, cc := range rest {
		frac := (1 / float64(i+3)) / weightSum
		t := int(float64(restTotal) * frac)
		h := int(float64(restHijack) * frac)
		// Give every rest country at least a node so the country count
		// matches the paper's 167.
		if t < 1 {
			t = 1
		}
		b.fillCountry(cc, b.total[cc]+t, b.hijack[cc]+h)
	}
}

// fillCountry adds nodes until the country reaches the given totals.
func (b *dnsBuilder) fillCountry(cc geo.CountryCode, targetTotal, targetHijack int) {
	// Hijack deficit first: small ISP resolvers (4–9 nodes each — below
	// the paper's 10-node server threshold, so they contribute to totals
	// and attribution but not to Table 4).
	for b.hijack[cc] < targetHijack && b.total[cc] < targetTotal {
		b.misc++
		domain := fmt.Sprintf("dnshelp%04d.%s.example", b.misc, cc)
		asn := b.bgAS(cc)
		org, _ := b.Geo.Org(asn)
		page := middlebox.LandingSpec{
			Operator:    org.Name,
			RedirectURL: "http://" + domain + "/search",
			AdCount:     3,
		}.Render()
		landing := b.landingHost(domain, asn, page)
		server := b.ispResolver(asn, landing)
		// Stay below the (scale-adjusted) 10-node server-observation cutoff
		// so these contribute to totals and attribution but never to
		// Table 4 — matching the paper's below-threshold ISP servers.
		cutoff := int(10*b.Scale + 0.5)
		if cutoff < 2 {
			cutoff = 2
		}
		lo := cutoff - 6
		if lo < 1 {
			lo = 1
		}
		size := lo
		if hi := cutoff - 1; hi > lo {
			size = lo + b.rng.IntN(hi-lo+1)
		}
		for i := 0; i < size && b.hijack[cc] < targetHijack && b.total[cc] < targetTotal; i++ {
			n := b.addNode(cc, asn, server, nil)
			b.labels(n).DNSHijacker = "isp:" + org.Name
			b.note(cc, true)
		}
	}

	// Honest remainder: mostly ISP resolvers, some Google users. A server's
	// nodes stay inside the server's AS so the ISP-resolver identification
	// (same org for server and all its nodes) holds.
	var server *dnsserver.Resolver
	var serverASN geo.ASN
	serverLeft := 0
	for b.total[cc] < targetTotal {
		if b.rng.Float64() < GoogleDNSShare {
			b.addNode(cc, b.bgAS(cc), b.Google, nil)
			b.note(cc, false)
			continue
		}
		if serverLeft == 0 {
			serverASN = b.bgAS(cc)
			server = b.ispResolver(serverASN, netip.Addr{})
			serverLeft = 8 + int(b.rng.IntN(30))
		}
		b.addNode(cc, serverASN, server, nil)
		serverLeft--
		b.note(cc, false)
	}
}

// StandardEvolution returns a wave hook for longitudinal scenarios: large
// hijacking ISPs progressively retire their appliances, the kind of change
// §9's continuous measurement is meant to surface. The returned function
// mutates the world before the given wave.
func StandardEvolution(w *World) func(wave int) {
	return func(wave int) {
		switch wave {
		case 1:
			// TMnet retires NXDOMAIN monetization.
			w.SetOrgHijack("tmnet-my", netip.Addr{})
		case 2:
			// The big U.S. deployments follow.
			w.SetOrgHijack("verizon-us", netip.Addr{})
			w.SetOrgHijack("cox-us", netip.Addr{})
		case 3:
			// And the U.K. ones.
			w.SetOrgHijack("talktalk-gb", netip.Addr{})
			w.SetOrgHijack("bt-gb", netip.Addr{})
		}
	}
}
