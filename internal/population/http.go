package population

import (
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/middlebox"
)

// HTTPTotalCountries is Table 2's country count for the HTTP experiment.
const HTTPTotalCountries = 171

// BuildHTTPWorld assembles the §5 world: ~50k nodes across ~12.7k ASes
// whose HTTP paths are calibrated to Tables 6 and 7.
func BuildHTTPWorld(seed uint64, scale float64) (*World, error) {
	w, err := newWorld(seed, scale, "http")
	if err != nil {
		return nil, err
	}
	b := &httpBuilder{World: w,
		total:   make(map[geo.CountryCode]int),
		asPools: w.newASPools(httpASCapacity),
	}
	b.buildRimon()
	b.buildInjectors()
	b.buildImageCompressors()
	b.buildReplacers()
	b.fill()
	return w, nil
}

type httpBuilder struct {
	*World
	asPools
	total map[geo.CountryCode]int
}

// httpASCapacity keeps the HTTP world's AS structure near the paper's (~4
// measured nodes per AS).
const httpASCapacity = 4

// addHTTPNode creates a node with an honest resolver and the given path.
func (b *httpBuilder) addHTTPNode(cc geo.CountryCode, asn geo.ASN, path *middlebox.Path, truthLabel, imageISP string) {
	r := b.Google // DNS is incidental here; the super proxy resolves anyway
	n := b.addNode(cc, asn, r, path)
	t := b.labels(n)
	t.HTTPModifier = truthLabel
	t.ImageISP = imageISP
	b.total[cc]++
}

// buildRimon instantiates AS 42925 (Internet Rimon): every node behind the
// NetSpark filter.
func (b *httpBuilder) buildRimon() {
	org := b.namedOrg("rimon-il", "Internet Rimon ISP", "IL")
	asn := b.namedAS(RimonASN, org, false)
	filter := middlebox.ContentFilter{Product: "NetSpark web filter"}
	n := b.scaled(Table6[0].Nodes)
	for i := 0; i < n; i++ {
		path := &middlebox.Path{HTTP: []middlebox.HTTPInterceptor{filter}}
		b.addHTTPNode("IL", asn, path, filter.Product, "")
	}
}

// buildInjectors instantiates the malware rows of Table 6 plus the
// below-threshold remainder groups.
func (b *httpBuilder) buildInjectors() {
	for _, g := range Table6 {
		if g.FilterISP {
			continue // Rimon handled above
		}
		inj := &middlebox.HTMLInjector{
			Product: g.Product, Signature: g.Signature, SignatureIsURL: g.IsURL,
			ExtraBytes: g.ExtraBytes,
		}
		countries := b.pickCountries(g.Countries, nil)
		// Spread the group's nodes over its AS count; ASes are reused so
		// the per-group (nodes, ASes, countries) triple tracks Table 6.
		asns := make([]geo.ASN, 0, g.ASes)
		n := b.scaled(g.Nodes)
		for i := 0; i < n; i++ {
			cc := countries[i%len(countries)]
			var asn geo.ASN
			if len(asns) < g.ASes {
				asn = b.bgAS(cc)
				asns = append(asns, asn)
			} else {
				asn = asns[i%len(asns)]
			}
			path := &middlebox.Path{HTTP: []middlebox.HTTPInterceptor{inj}}
			b.addHTTPNode(cc, asn, path, g.Product, "")
		}
	}

	// Identified signatures below Table 6's five-node cutoff.
	miscCountries := b.pickCountries(20, nil)
	nMisc := b.scaledBg(MiscInjectedNodes)
	for i := 0; i < nMisc; i++ {
		sig := miscSignature(i)
		inj := &middlebox.HTMLInjector{Product: "misc adware", Signature: sig, SignatureIsURL: true}
		cc := miscCountries[i%len(miscCountries)]
		path := &middlebox.Path{HTTP: []middlebox.HTTPInterceptor{inj}}
		b.addHTTPNode(cc, b.bgAS(cc), path, "misc adware", "")
	}

	// Injections with no extractable signature: inline code with no URL and
	// a node-unique keyword.
	nUnid := b.scaledBg(UnidentifiedInjectedNodes)
	for i := 0; i < nUnid; i++ {
		inj := &middlebox.HTMLInjector{Product: "unidentified injector",
			Signature: "(function(){/*" + miscSignature(i+1000) + "*/})();"}
		cc := miscCountries[(i*3)%len(miscCountries)]
		path := &middlebox.Path{HTTP: []middlebox.HTTPInterceptor{inj}}
		b.addHTTPNode(cc, b.bgAS(cc), path, "unidentified injector", "")
	}

	// Block/"bandwidth exceeded" pages, filtered out of the HTML analysis.
	nBlock := b.scaledBg(BlockPageNodes)
	for i := 0; i < nBlock; i++ {
		msg := "bandwidth exceeded"
		if i%2 == 1 {
			msg = "blocked by network policy"
		}
		bp := middlebox.BlockPage{Product: "quota appliance", Message: msg, Kinds: []string{"text/html"}}
		cc := miscCountries[(i*7)%len(miscCountries)]
		path := &middlebox.Path{HTTP: []middlebox.HTTPInterceptor{bp}}
		b.addHTTPNode(cc, b.bgAS(cc), path, "blockpage", "")
	}
}

// miscSignature generates a distinct below-threshold injection domain.
func miscSignature(i int) string {
	letters := "abcdefghijklmnopqrstuvwxyz"
	buf := make([]byte, 8)
	v := uint32(i)*2654435761 + 12345
	for j := range buf {
		buf[j] = letters[v%26]
		v = v*1664525 + 1013904223
	}
	return string(buf) + ".example"
}

// buildImageCompressors instantiates Table 7: mobile ASes transcoding
// images, with per-ISP compression ratios.
func (b *httpBuilder) buildImageCompressors() {
	for _, g := range Table7 {
		org := b.namedOrg(g.OrgID, g.ISP, g.Country)
		asn := b.namedAS(g.ASN, org, true)
		total := b.scaled(g.Total)
		modified := b.scaled(g.Modified)
		if modified > total {
			modified = total
		}
		for i := 0; i < total; i++ {
			if i < modified {
				// "M" rows: the appliance runs two settings; nodes split
				// between them.
				ratio := g.Ratios[i%len(g.Ratios)]
				ic := middlebox.ImageCompressor{Product: g.ISP + " transcoder", Ratios: []float64{ratio}}
				path := &middlebox.Path{HTTP: []middlebox.HTTPInterceptor{ic}}
				b.addHTTPNode(g.Country, asn, path, "", g.ISP)
				continue
			}
			b.addHTTPNode(g.Country, asn, nil, "", "")
		}
	}

	// Compressed images in ASes too small to pass the 10-node filter.
	n := b.scaledBg(SmallCompressingNodes)
	countries := b.pickCountries(8, nil)
	for i := 0; i < n; i++ {
		cc := countries[i%len(countries)]
		org := b.newOrg("", cc)
		asn := b.newAS(org, true)
		ic := middlebox.ImageCompressor{Product: "small mobile transcoder", Ratios: []float64{0.5}}
		path := &middlebox.Path{HTTP: []middlebox.HTTPInterceptor{ic}}
		b.addHTTPNode(cc, asn, path, "", "small mobile ISP")
	}
}

// buildReplacers instantiates the §5.2 JS/CSS replacement cases: error
// pages or empty responses in place of scripts and stylesheets.
func (b *httpBuilder) buildReplacers() {
	countries := b.pickCountries(15, nil)
	nJS := b.scaledBg(JSReplacedNodes)
	for i := 0; i < nJS; i++ {
		bp := middlebox.BlockPage{Product: "script filter", Message: "request rejected",
			Kinds: []string{"application/javascript"}, Empty: i%2 == 0}
		cc := countries[i%len(countries)]
		path := &middlebox.Path{HTTP: []middlebox.HTTPInterceptor{bp}}
		b.addHTTPNode(cc, b.bgAS(cc), path, "js-replaced", "")
	}
	nCSS := b.scaledBg(CSSReplacedNodes)
	for i := 0; i < nCSS; i++ {
		bp := middlebox.BlockPage{Product: "style filter", Message: "request rejected",
			Kinds: []string{"text/css"}, Empty: i%2 == 1}
		cc := countries[(i*3)%len(countries)]
		path := &middlebox.Path{HTTP: []middlebox.HTTPInterceptor{bp}}
		b.addHTTPNode(cc, b.bgAS(cc), path, "css-replaced", "")
	}
}

// fill tops the world up to the Table 2 totals with clean nodes spread
// across HTTPTotalCountries countries.
func (b *httpBuilder) fill() {
	target := b.scaledBg(HTTPTotalNodes)
	built := 0
	for _, v := range b.total {
		built += v
	}
	b.fillHarmonic(b.pickCountries(HTTPTotalCountries, nil), target-built, func(cc geo.CountryCode) {
		b.addHTTPNode(cc, b.bgAS(cc), nil, "", "")
	})
}
