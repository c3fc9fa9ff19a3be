package core

import (
	"context"
	"net/netip"
	"strings"

	"github.com/tftproject/tft/internal/content"
	"github.com/tftproject/tft/internal/dnsserver"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/origin"
	"github.com/tftproject/tft/internal/proxynet"
)

// DNSObservation is one measured exit node's NXDOMAIN result (§4.1).
type DNSObservation struct {
	ZID    string     `json:"zid"`
	NodeIP netip.Addr `json:"node_ip"`
	// ResolverIP is the egress address of the node's DNS server, learned
	// from the authoritative query log for d1 (step 2).
	ResolverIP netip.Addr `json:"resolver_ip,omitzero"`
	// ASN and Country are derived from NodeIP via the public IP→AS mapping.
	ASN     geo.ASN         `json:"asn"`
	Country geo.CountryCode `json:"country"`
	// SharedAnycast marks nodes filtered per footnote 8: their Google
	// anycast instance is the super proxy's, so the d2 gate cannot
	// distinguish them.
	SharedAnycast bool `json:"shared_anycast,omitempty"`
	// Hijacked is true when d2 returned content instead of NXDOMAIN.
	Hijacked bool `json:"hijacked,omitempty"`
	// LandingDomains are the link hosts extracted from the hijack page.
	LandingDomains []string `json:"landing_domains,omitempty"`
	// LandingBody is the raw hijack page (kept for fingerprinting the
	// shared-appliance JavaScript).
	LandingBody []byte `json:"landing_body,omitempty"`
}

// DNSDataset is the DNS experiment's output. Discarded counts sessions
// where the exit node changed between d1 and d2 (visible in the retry debug
// header).
type DNSDataset = Dataset[*DNSObservation]

// DNSExperiment drives §4's methodology.
type DNSExperiment struct {
	Client *proxynet.Client
	Auth   *dnsserver.Authority
	Web    *origin.Server
	Geo    *geo.Registry
	// Zone is the measurement domain.
	Zone string
	// Weights are the service-reported per-country node counts (§3.2).
	Weights map[geo.CountryCode]int
	Crawl   CrawlConfig
	Seed    uint64
}

// namePrefixes used under the zone.
const (
	d1Prefix = "d1-"
	d2Prefix = "d2-"
)

// ProbeRules is the authoritative server's fallback for every probe name
// (§4.1 step 1): d1-, h- and u- names resolve to web for anyone; d2- names
// resolve only for queries from exactly superEgress, the super proxy's
// resolver, and for nobody when superEgress is the zero address. A name
// matches on its first label, so a dotless name gets no rule. Both rules
// are built once, here.
func ProbeRules(web, superEgress netip.Addr) func(name string) dnsserver.Rule {
	open := dnsserver.Always(web)
	gated := dnsserver.OnlyFrom(web, func(src netip.Addr) bool {
		return superEgress.IsValid() && src == superEgress
	})
	return func(name string) dnsserver.Rule {
		label, _, ok := strings.Cut(name, ".")
		if !ok {
			return nil
		}
		switch {
		case strings.HasPrefix(label, d1Prefix), strings.HasPrefix(label, httpPrefix),
			strings.HasPrefix(label, monPrefix):
			return open
		case strings.HasPrefix(label, d2Prefix):
			return gated
		}
		return nil
	}
}

// Run executes the crawl and returns the dataset.
func (e *DNSExperiment) Run(ctx context.Context) (*DNSDataset, error) {
	m := e.Crawl.Metrics
	return runCrawl(ctx, e.Crawl, e.Weights, e.Seed, crawlSpec[*DNSObservation]{
		name: "dns", stream: "crawl/dns",
		measure:          e.measure,
		zid:              func(o *DNSObservation) string { return o.ZID },
		violation:        func(o *DNSObservation) bool { return o.Hijacked },
		violationCounter: "dns_hijacked_total", violationDetail: "dns_hijack",
		onOK: func(_ int, o *DNSObservation) {
			if o.SharedAnycast {
				m.Counter("dns_shared_anycast_total").Inc()
			}
		},
		discardedCounter: "crawl_discarded_total",
	})
}

// measure runs the three-step §4.1 probe through one session.
func (e *DNSExperiment) measure(ctx context.Context, cr *crawler, cc geo.CountryCode, sess string) (*DNSObservation, outcome) {
	// The authority keys its log by the dotted name; the host is that name
	// less its last byte, so each probe name is built once.
	fqdn1 := d1Prefix + sess + "." + e.Zone + "."
	fqdn2 := d2Prefix + sess + "." + e.Zone + "."
	d1, d2 := fqdn1[:len(fqdn1)-1], fqdn2[:len(fqdn2)-1]
	// Probe names are unique per session, so once this probe returns their
	// log entries can never be consulted again; releasing them keeps the
	// authority and web-server logs at O(in-flight sessions) instead of
	// O(all sessions) across a paper-scale crawl. d1's entries are taken —
	// read and forgotten at once — when its fetch returns; d2's, which
	// nothing reads, are forgotten on the way out.
	defer func() {
		e.Auth.Forget(fqdn2)
		e.Web.Forget(d2)
	}()
	opts := proxynet.Options{Country: cc, Session: sess, RemoteDNS: true}

	// Step 2: fetch d1; the node's resolver must answer, and both our DNS
	// and web logs light up: the super proxy's resolver and the node's ask
	// the authority, and the node asks the web server.
	resp1, dbg1, err := e.Client.Get(ctx, opts, "http://"+d1+"/")
	var held [4]dnsserver.Query
	queries := e.Auth.Take(fqdn1, held[:0])
	reqs := e.Web.Take(d1)
	if err != nil || dbg1 == nil || dbg1.ZID == "" || dbg1.Err != "" {
		return nil, classifyFailure(err, dbg1)
	}
	zid, isNew := cr.observe(dbg1.ZID)
	if !isNew {
		return nil, outcomeDuplicate
	}
	obs := &DNSObservation{ZID: zid}

	// The exit node's IP comes from the web server's request log.
	if len(reqs) == 0 {
		return nil, outcomeFailed
	}
	obs.NodeIP = reqs[0].Src
	obs.ASN, obs.Country = locate(e.Geo, obs.NodeIP)

	// The node's resolver egress comes from the DNS log: drop one query
	// from the super proxy's own resolution, and what remains is the
	// node's resolver.
	superSeen := false
	for _, q := range queries {
		if !superSeen && q.Src == geo.SuperProxyResolverEgress {
			superSeen = true
			continue
		}
		obs.ResolverIP = q.Src
	}
	if !obs.ResolverIP.IsValid() || obs.ResolverIP == geo.SuperProxyResolverEgress {
		// Footnote 8: the node's resolver egress is the super proxy's own
		// anycast instance, so the d2 gate cannot tell them apart — filter.
		obs.SharedAnycast = true
		chargeBytes(e.Crawl.Metrics, len(resp1.Body))
		return obs, outcomeOK
	}

	// Step 3: request d2 through the same node; NXDOMAIN in the debug log
	// means the node received the honest error.
	resp2, dbg2, err := e.Client.Get(ctx, opts, "http://"+d2+"/")
	if err != nil || dbg2 == nil {
		return nil, classifyFailure(err, dbg2)
	}
	if dbg2.ZID != obs.ZID {
		return nil, outcomeDiscarded
	}
	chargeBytes(e.Crawl.Metrics, len(resp1.Body)+len(resp2.Body))
	if dbg2.PeerNXDomain() {
		return obs, outcomeOK
	}
	if resp2.StatusCode == 200 {
		obs.Hijacked = true
		obs.LandingBody = resp2.Body
		obs.LandingDomains = content.ExtractDomains(resp2.Body)
	}
	return obs, outcomeOK
}
