package population

import (
	"fmt"
	"net/netip"
	"sync/atomic"
	"time"

	"github.com/tftproject/tft/internal/cert"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/middlebox"
	"github.com/tftproject/tft/internal/origin"
	"github.com/tftproject/tft/internal/tlssim"
)

// Site is one HTTPS destination the §6 experiment probes.
type Site struct {
	Host string
	IP   netip.Addr
	// Addr is the CONNECT target, IP:443, rendered once so that a probe
	// builds no string.
	Addr string
	// Chain is the certificate chain the genuine server presents.
	Chain []*cert.Certificate
	// AltChain, when non-nil, is a second genuine chain the site rotates
	// to on alternating connections — CDN behaviour, the §6.1 footnote-20
	// reason the methodology validates rather than exact-matches popular
	// sites ("many sites use content delivery networks and end up using
	// different certificates on different servers").
	AltChain []*cert.Certificate
	// Invalid marks the three deliberately broken sites; their chains are
	// exact-match checked (§6.1) because the team controls them.
	Invalid bool
}

// SiteRegistry is the experiment's target list: per-country popular sites
// (Alexa top-20 stand-ins), ten university sites, and three invalid sites.
type SiteRegistry struct {
	Popular      map[geo.CountryCode][]*Site
	Universities []*Site
	Invalid      []*Site
	byHost       map[string]*Site
}

// ByHost looks a site up by hostname.
func (sr *SiteRegistry) ByHost(host string) (*Site, bool) {
	s, ok := sr.byHost[host]
	return s, ok
}

// Countries lists the countries with popular-site lists.
func (sr *SiteRegistry) Countries() []geo.CountryCode {
	out := make([]geo.CountryCode, 0, len(sr.Popular))
	for cc := range sr.Popular {
		out = append(out, cc)
	}
	return out
}

// BuildTLSWorld assembles the §6 world: ~808k nodes in 115 countries, a
// site registry, and the Table 8 population of TLS-intercepting products.
func BuildTLSWorld(seed uint64, scale float64) (*World, error) {
	w, err := newWorld(seed, scale, "tls")
	if err != nil {
		return nil, err
	}
	b := &tlsBuilder{World: w, asPools: w.newASPools(tlsASCapacity)}
	// 115 countries had usable Alexa rankings (§6.2 footnote). Russia must
	// be among them: the Cloudguard malware population is pinned there.
	b.countries = b.pickCountries(TLSTotalCountries, nil)
	hasRU := false
	for _, cc := range b.countries {
		if cc == "RU" {
			hasRU = true
			break
		}
	}
	if !hasRU {
		b.countries[len(b.countries)-1] = "RU"
	}
	b.buildSites()
	b.buildProducts()
	b.fill()
	w.Sites = b.sites
	return w, nil
}

type tlsBuilder struct {
	*World
	asPools
	countries []geo.CountryCode
	sites     *SiteRegistry
	total     int
}

const tlsASCapacity = 81 // ~808k nodes over ~10k ASes

// registerSite registers the HTTPS host and indexes the site. Each chain
// is framed as a certificate record here, once, and every handshake writes
// that record as it is. A site with an alternative chain rotates between
// the two across connections, like a CDN-fronted service.
func (b *tlsBuilder) registerSite(host string, asn geo.ASN, chain, alt []*cert.Certificate, invalid bool) *Site {
	ip := b.addr(asn)
	s := &Site{Host: host, IP: ip, Addr: netip.AddrPortFrom(ip, 443).String(), Chain: chain, AltChain: alt, Invalid: invalid}
	framed := tlssim.FrameChain(chain)
	serve := func(string) []byte { return framed }
	if alt != nil {
		altFramed := tlssim.FrameChain(alt)
		var flip atomic.Uint64
		serve = func(string) []byte {
			if flip.Add(1)%2 == 0 {
				return altFramed
			}
			return framed
		}
	}
	// HTTPS origins are dialed by the exit node while it sets up a CONNECT
	// tunnel, so their ClientHello arrives only after the tunnel's 200 has
	// reached the client and the splice is armed: the site answers on its
	// stream's readiness callbacks, not by running to completion.
	b.Fabric.HandleTCP(ip, 443, origin.FramedTLSSite(serve))
	b.sites.byHost[host] = s
	return s
}

// buildSites creates the three site classes of §6.1.
func (b *tlsBuilder) buildSites() {
	b.sites = &SiteRegistry{
		Popular: make(map[geo.CountryCode][]*Site),
		byHost:  make(map[string]*Site),
	}
	webOrg := b.namedOrg("web-hosting", "Global Web Hosting", "US")
	webASN := b.newAS(webOrg, false)
	ca := b.SiteCAs[0]
	eduCA := b.SiteCAs[2]
	valid := func(host string, ca *cert.CA) []*cert.Certificate {
		leaf := ca.Issue(cert.Template{
			Subject:   cert.Name{CommonName: host, Organization: "Site Operator"},
			NotBefore: Epoch.Add(-90 * 24 * time.Hour),
			NotAfter:  Epoch.Add(365 * 24 * time.Hour),
			KeySeed:   "site/" + host,
		})
		return []*cert.Certificate{leaf, ca.Cert}
	}

	// Popular sites: 20 per country; every third sits behind a CDN that
	// rotates between two (equally valid) certificates.
	for _, cc := range b.countries {
		for i := 0; i < 20; i++ {
			host := fmt.Sprintf("www.popular%02d.%s.example", i, cc)
			chain := valid(host, ca)
			var alt []*cert.Certificate
			if i%3 == 0 {
				alt = []*cert.Certificate{ca.Issue(cert.Template{
					Subject:   cert.Name{CommonName: host, Organization: "Site Operator (CDN edge)"},
					NotBefore: Epoch.Add(-60 * 24 * time.Hour),
					NotAfter:  Epoch.Add(305 * 24 * time.Hour),
					KeySeed:   "site-cdn/" + host,
				}), ca.Cert}
			}
			b.sites.Popular[cc] = append(b.sites.Popular[cc], b.registerSite(host, webASN, chain, alt, false))
		}
	}

	// International sites: ten U.S. universities.
	eduOrg := b.namedOrg("us-universities", "US Universities", "US")
	eduASN := b.newAS(eduOrg, false)
	for i := 0; i < 10; i++ {
		host := fmt.Sprintf("www.university%02d.edu.example", i)
		b.sites.Universities = append(b.sites.Universities, b.registerSite(host, eduASN, valid(host, eduCA), nil, false))
	}

	// Invalid sites: self-signed, expired, wrong common name (§6.1).
	invOrg := b.namedOrg("tft-invalid", "TFT Measurement Servers", "US")
	invASN := b.newAS(invOrg, false)
	self := cert.NewRootCA(cert.Name{CommonName: "selfsigned.tft-invalid.example"}, "inv-self",
		Epoch.Add(-time.Hour), 365*24*time.Hour)
	b.sites.Invalid = append(b.sites.Invalid,
		b.registerSite("selfsigned.tft-invalid.example", invASN,
			[]*cert.Certificate{self.Cert}, nil, true))
	expired := ca.Issue(cert.Template{
		Subject:   cert.Name{CommonName: "expired.tft-invalid.example"},
		NotBefore: Epoch.Add(-2 * 365 * 24 * time.Hour),
		NotAfter:  Epoch.Add(-365 * 24 * time.Hour),
		KeySeed:   "inv-expired",
	})
	b.sites.Invalid = append(b.sites.Invalid,
		b.registerSite("expired.tft-invalid.example", invASN,
			[]*cert.Certificate{expired, ca.Cert}, nil, true))
	wrongCN := ca.Issue(cert.Template{
		Subject:   cert.Name{CommonName: "completely-different-name.example"},
		NotBefore: Epoch.Add(-time.Hour),
		NotAfter:  Epoch.Add(365 * 24 * time.Hour),
		KeySeed:   "inv-wrongcn",
	})
	b.sites.Invalid = append(b.sites.Invalid,
		b.registerSite("wrongname.tft-invalid.example", invASN,
			[]*cert.Certificate{wrongCN, ca.Cert}, nil, true))
}

// buildProducts instantiates Table 8's interceptor population plus the
// long-tail issuers.
func (b *tlsBuilder) buildProducts() {
	now := func() time.Time { return b.Clock.Now() }
	for _, g := range Table8 {
		spec := g.Spec
		if spec.Product == "OpenDNS" {
			// OpenDNS MITMs only its block page list: a slice of popular
			// sites plus some university sites. Coverage below 100% is why
			// selective replacement appears in the data.
			var blocked []string
			for _, cc := range b.countries {
				for i, s := range b.sites.Popular[cc] {
					if i%2 == 0 {
						blocked = append(blocked, s.Host)
					}
				}
			}
			for i, s := range b.sites.Universities {
				if i < 3 {
					blocked = append(blocked, s.Host)
				}
			}
			spec.BlockList = blocked
		}
		pcs := spec.Build(Epoch, b.Trust)
		n := b.scaled(g.Nodes)
		for i := 0; i < n; i++ {
			cc := b.countries[int(b.rng.IntN(len(b.countries)))]
			if spec.Product == "Cloudguard.me" {
				// §6.2: every Cloudguard-infected node sat in a Russian ISP.
				cc = "RU"
			}
			asn := b.bgAS(cc)
			node := b.addNode(cc, asn, b.Google, nil)
			node.SetPath(&middlebox.Path{TLS: []*middlebox.CertMITM{pcs.Instance(node.ZID(), now)}})
			b.labels(node).TLSProduct = spec.Product
			b.total++
		}
	}

	// Long tail: many rare issuers.
	nMisc := b.scaledBg(MiscTLSNodes)
	for i := 0; i < nMisc; i++ {
		idx := i % MiscTLSProducts
		spec := middlebox.ProductSpec{
			Product:  fmt.Sprintf("misc-tls-%02d", idx),
			IssuerCN: fmt.Sprintf("Gateway CA %02d", idx),
			Kind:     "N/A", ReuseKey: true, Invalid: middlebox.InvalidSkip,
		}
		pcs := spec.Build(Epoch, b.Trust)
		cc := b.countries[int(b.rng.IntN(len(b.countries)))]
		asn := b.bgAS(cc)
		node := b.addNode(cc, asn, b.Google, nil)
		node.SetPath(&middlebox.Path{TLS: []*middlebox.CertMITM{pcs.Instance(node.ZID(), now)}})
		b.labels(node).TLSProduct = spec.Product
		b.total++
	}
}

// fill adds clean nodes up to the Table 2 total, spread over the site
// countries.
func (b *tlsBuilder) fill() {
	b.fillHarmonic(b.countries, b.scaledBg(TLSTotalNodes)-b.total, func(cc geo.CountryCode) {
		b.addNode(cc, b.bgAS(cc), b.Google, nil)
	})
}
