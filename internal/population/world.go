// Package population builds the synthetic worlds the experiments measure:
// exit-node populations whose countries, ASes, resolvers, middleboxes, and
// monitoring software are calibrated so that the paper's published tables
// are the ground truth the measurement pipeline should re-derive.
//
// Calibration is the substitution DESIGN.md documents: the real Internet's
// violator population is unobservable, so we instantiate one matching the
// paper's published marginals (Tables 2–9) and validate the methodology by
// measuring it back out through the full proxy/DNS/HTTP/TLS stack.
package population

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"time"

	"github.com/tftproject/tft/internal/cert"
	"github.com/tftproject/tft/internal/dnsserver"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/middlebox"
	"github.com/tftproject/tft/internal/origin"
	"github.com/tftproject/tft/internal/proxynet"
	"github.com/tftproject/tft/internal/simnet"
)

// Epoch is the virtual-time origin of every world — the paper's first
// collection day (April 13, 2016).
var Epoch = time.Date(2016, 4, 13, 0, 0, 0, 0, time.UTC)

// Zone is the measurement team's domain; every probe name lives under it.
const Zone = "probe.tft-example.net"

// Well-known infrastructure addresses.
var (
	WebIP    = netip.MustParseAddr("198.18.0.10") // measurement web server
	AuthIP   = netip.MustParseAddr("198.18.0.53") // authoritative DNS
	ProxyIP  = netip.MustParseAddr("198.18.0.22") // super proxy
	ClientIP = netip.MustParseAddr("198.18.0.99") // measurement client
)

// NodeTruth is the generator's ground-truth record for one exit node,
// used by tests to validate what the pipeline measures. It is assembled on
// demand: the identity fields from the node's spec row, the labels as the
// builders set them.
type NodeTruth struct {
	ZID     string
	Country geo.CountryCode
	ASN     geo.ASN
	// UsesGoogleDNS marks nodes configured with 8.8.8.8.
	UsesGoogleDNS bool
	Labels
}

// Labels are the ground truths a builder assigns a node after creating it;
// each is "" for a clean node.
type Labels struct {
	// DNSHijacker is the party hijacking NXDOMAIN for this node: a label
	// like "isp:TMnet", "public:Comodo", "path:Deutsche Telekom",
	// "software:Norton ConnectSafe".
	DNSHijacker string
	// HTTPModifier / ImageISP / TLSProduct / MonitorProduct label the other
	// experiments' ground truths.
	HTTPModifier   string
	ImageISP       string
	TLSProduct     string
	MonitorProduct string
}

// World is a fully wired simulated Internet for one experiment.
type World struct {
	Scale float64
	Seed  uint64

	Clock  *simnet.Virtual
	Fabric *simnet.Fabric
	Geo    *geo.Registry
	Auth   *dnsserver.Authority
	Web    *origin.Server
	Pool   proxynet.NodeSource
	Super  *proxynet.SuperProxy
	Client *proxynet.Client

	// Spec is the recorded node population backing Pool: builders record
	// one columnar row per node here, and the pool materializes live nodes
	// from it on demand.
	Spec *WorldSpec

	// Trust is the clean OS root store; SiteCAs issue legitimate site
	// certificates chained into it.
	Trust   *cert.Store
	SiteCAs []*cert.CA

	// Google is the shared 8.8.8.8 resolver.
	Google *dnsserver.Resolver

	// Sites is the HTTPS experiment's target registry (TLS worlds only).
	Sites *SiteRegistry

	// ResolverDir lists every recursive resolver in the world with its
	// openness — the target list the open-resolver-scan baseline sweeps
	// (standing in for an IPv4-wide scan).
	ResolverDir []ResolverEntry

	// ResolversByOrg indexes the recursive resolvers by operating
	// organization, letting longitudinal scenarios flip an ISP's hijack
	// policy over time (the continuous-measurement vision of §9).
	ResolversByOrg map[geo.OrgID][]*dnsserver.Resolver

	rng        *rand.Rand
	lazy       *proxynet.LazyPool
	nextASN    geo.ASN
	nextOrg    int
	landings   map[string]netip.Addr // landing domain -> host address
	upstreamFn func(string) (netip.Addr, bool)
}

// newWorld wires the shared infrastructure every experiment needs.
func newWorld(seed uint64, scale float64, label string) (*World, error) {
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("population: scale %v out of (0,1]", scale)
	}
	w := &World{
		Scale:          scale,
		Seed:           seed,
		Clock:          simnet.NewVirtual(Epoch),
		Fabric:         simnet.NewFabric(),
		Geo:            geo.NewRegistry(),
		Spec:           NewWorldSpec(),
		ResolversByOrg: make(map[geo.OrgID][]*dnsserver.Resolver),
		rng:            simnet.SubRand(seed, "population/"+label),
		nextASN:        100000,
		landings:       make(map[string]netip.Addr),
	}
	if err := geo.InstallGoogle(w.Geo); err != nil {
		return nil, err
	}
	// Stream deadlines live on virtual time: a simulated run never stalls on
	// a wall-clock timer, and Advance can expire idle connections.
	w.Fabric.Clock = w.Clock

	w.Auth = dnsserver.NewAuthority(Zone, w.Clock)
	w.Fabric.HandleDNS(AuthIP, w.Auth.Handler())
	w.Web = origin.NewServer(w.Clock)
	w.Web.AllowSkew = true
	w.Fabric.HandleTCP(WebIP, 80, w.Web.ConnHandler())

	w.upstreamFn = func(name string) (netip.Addr, bool) { return AuthIP, true }
	w.Google = dnsserver.NewGoogleResolver(w.Fabric, w.upstreamFn)
	w.registerResolver(w.Google, true)

	w.Trust, w.SiteCAs = cert.NewOSRootStore(Epoch)

	spResolver := &dnsserver.Resolver{
		Addr: geo.GoogleDNSAddr, Net: w.Fabric, Upstream: w.upstreamFn,
		EgressFor: func(netip.Addr) netip.Addr { return geo.SuperProxyResolverEgress },
	}
	w.lazy = proxynet.NewLazyPool(simnet.SubRand(seed, "pool/"+label), 0.01,
		func(i int) *proxynet.ExitNode { return w.Spec.Materialize(i, w.Fabric, w.Clock) },
		w.Spec.Index)
	w.Pool = w.lazy
	w.Super = proxynet.NewSuperProxy(ProxyIP, w.Pool, spResolver, w.Clock)
	w.Fabric.HandleTCP(ProxyIP, proxynet.ProxyPort, w.Super.ConnHandler())
	w.Client = &proxynet.Client{
		Net: w.Fabric, Src: ClientIP, Proxy: ProxyIP,
		User: "lum-customer-tft", Password: "tft-secret",
	}
	return w, nil
}

// scaled converts a full-scale paper count into this world's count. Named
// groups keep at least three members so they survive the analysis row
// cutoffs (which floor at 2) and the table shapes hold at small scales.
func (w *World) scaled(n int) int {
	if n <= 0 {
		return 0
	}
	v := float64(n) * w.Scale
	out := int(v + 0.5)
	if out < 3 {
		out = 3
	}
	if out > n {
		out = n
	}
	return out
}

// scaledBg scales a background (non-named) count with plain rounding.
func (w *World) scaledBg(n int) int {
	return int(float64(n)*w.Scale + 0.5)
}

// newOrg registers a background organization in a country.
func (w *World) newOrg(name string, cc geo.CountryCode) geo.OrgID {
	w.nextOrg++
	id := geo.OrgID(fmt.Sprintf("org-%05d", w.nextOrg))
	if name == "" {
		name = fmt.Sprintf("%s Network %d", geo.CountryName(cc), w.nextOrg)
	}
	if _, err := w.Geo.AddOrg(id, name, cc); err != nil {
		panic(err)
	}
	return id
}

// namedOrg registers an organization with a stable ID (paper-named ISPs).
func (w *World) namedOrg(id geo.OrgID, name string, cc geo.CountryCode) geo.OrgID {
	if _, ok := w.Geo.OrgByID(id); ok {
		return id
	}
	if _, err := w.Geo.AddOrg(id, name, cc); err != nil {
		panic(err)
	}
	return id
}

// newAS allocates a fresh AS for an organization.
func (w *World) newAS(org geo.OrgID, mobile bool) geo.ASN {
	w.nextASN++
	if _, err := w.Geo.AddAS(w.nextASN, org, mobile); err != nil {
		panic(err)
	}
	return w.nextASN
}

// namedAS registers a specific AS number (paper-named ASes).
func (w *World) namedAS(asn geo.ASN, org geo.OrgID, mobile bool) geo.ASN {
	if _, ok := w.Geo.ASInfo(asn); ok {
		return asn
	}
	if _, err := w.Geo.AddAS(asn, org, mobile); err != nil {
		panic(err)
	}
	return asn
}

// addr hands out an address inside an AS.
func (w *World) addr(asn geo.ASN) netip.Addr {
	a, err := w.Geo.NextAddr(asn)
	if err != nil {
		panic(err)
	}
	return a
}

// landingHost registers (once) a landing-page host for a domain, serving
// the given page, and returns its address. The host lives in the supplied
// AS so prefix-ownership attribution works.
func (w *World) landingHost(domain string, asn geo.ASN, page []byte) netip.Addr {
	if ip, ok := w.landings[domain]; ok {
		return ip
	}
	ip := w.addr(asn)
	w.Fabric.HandleTCP(ip, 80, origin.StaticPage(page, "text/html; charset=utf-8"))
	w.landings[domain] = ip
	return ip
}

// ResolverEntry is one recursive resolver as seen by a scanner.
type ResolverEntry struct {
	Addr netip.Addr
	// Open resolvers answer anyone; closed (ISP) resolvers refuse queries
	// from outside their operator's network.
	Open bool
}

// ispResolver builds an ISP resolver homed in asn, answering NXDOMAIN with
// landing (the zero address: honestly). ISP resolvers are closed: they
// refuse queries from outside their operator.
func (w *World) ispResolver(asn geo.ASN, landing netip.Addr) *dnsserver.Resolver {
	r := dnsserver.NewResolver(w.addr(asn), w.Fabric, w.upstreamFn)
	r.NXLanding = landing
	w.registerResolver(r, false)
	w.indexResolver(asn, r)
	return r
}

// publicResolver builds a resolver that answers the whole Internet,
// hijacking NXDOMAIN to landing as ispResolver does.
func (w *World) publicResolver(asn geo.ASN, landing netip.Addr) *dnsserver.Resolver {
	r := dnsserver.NewResolver(w.addr(asn), w.Fabric, w.upstreamFn)
	r.NXLanding = landing
	w.registerResolver(r, true)
	return r
}

// indexResolver records the resolver under its operator.
func (w *World) indexResolver(asn geo.ASN, r *dnsserver.Resolver) {
	if org, ok := w.Geo.Org(asn); ok {
		w.ResolversByOrg[org.ID] = append(w.ResolversByOrg[org.ID], r)
	}
}

// SetOrgHijack flips the NXDOMAIN policy of every resolver an organization
// operates — an evolution event for longitudinal scenarios: they answer
// NXDOMAIN with landing, and the zero address makes the ISP honest. It
// returns how many resolvers changed.
func (w *World) SetOrgHijack(org geo.OrgID, landing netip.Addr) int {
	rs := w.ResolversByOrg[org]
	for _, r := range rs {
		r.NXLanding = landing
	}
	return len(rs)
}

// registerResolver exposes a resolver as a DNS service on the fabric and
// records it in the scan directory. Closed resolvers refuse sources outside
// their operator's organization, which is why open-resolver scans cannot
// see ISP-resolver hijacking (§8).
func (w *World) registerResolver(r *dnsserver.Resolver, open bool) {
	w.ResolverDir = append(w.ResolverDir, ResolverEntry{Addr: r.Addr, Open: open})
	var admit func(src netip.Addr) bool
	if !open {
		ownASN, _ := w.Geo.LookupAS(r.Addr)
		ownOrg, _ := w.Geo.Org(ownASN)
		admit = func(src netip.Addr) bool {
			srcASN, ok := w.Geo.LookupAS(src)
			srcOrg, ok2 := w.Geo.Org(srcASN)
			return ok && ok2 && ownOrg != nil && srcOrg.ID == ownOrg.ID
		}
	}
	w.Fabric.HandleDNS(r.Addr, r.Handler(admit))
}

// addNode records an exit-node spec row and registers its country with the
// lazy pool. The node itself is materialized on demand when the super proxy
// picks it. Returns a handle for the per-node assignments builders make
// after creation.
func (w *World) addNode(cc geo.CountryCode, asn geo.ASN, resolver *dnsserver.Resolver, path *middlebox.Path) NodeHandle {
	i := w.Spec.add(cc, asn, w.addr(asn), resolver, path)
	if j := w.lazy.Register(cc); j != i {
		panic(fmt.Sprintf("population: spec row %d registered as pool index %d", i, j))
	}
	return NodeHandle{spec: w.Spec, idx: i}
}

// labels returns the ground-truth labels of a recorded node, for its
// builder to set.
func (w *World) labels(h NodeHandle) *Labels { return &w.Spec.labels[h.idx] }

// TruthFor returns the ground-truth record for a zID, or nil for unknown
// identifiers. Tests use it to validate what the pipeline measures.
func (w *World) TruthFor(zid string) *NodeTruth {
	i, ok := w.Spec.Index(zid)
	if !ok {
		return nil
	}
	return w.truth(i)
}

// Truths returns the ground-truth records for every recorded node in
// creation order — a test helper; O(population).
func (w *World) Truths() []*NodeTruth {
	out := make([]*NodeTruth, w.Spec.Len())
	for i := range out {
		out[i] = w.truth(i)
	}
	return out
}

// truth assembles row i's ground-truth record from its spec row.
func (w *World) truth(i int) *NodeTruth {
	s := w.Spec
	return &NodeTruth{
		ZID: s.ZID(i), Country: s.countries[i], ASN: s.asns[i],
		UsesGoogleDNS: s.resolvers[i] == w.Google, Labels: s.labels[i],
	}
}

// asCapacity is the default nodes-per-AS ratio of the background
// population (the DNS world's ~74; HTTP and TLS have their own).
const asCapacity = 74

// asPools hands out background ASes country by country, rolling a country
// over to a fresh organization and AS every capacity nodes so the world's
// AS count tracks the paper's nodes-per-AS ratio for that experiment.
type asPools struct {
	world    *World
	capacity int
	current  map[geo.CountryCode]*asPool
}

// asPool is the AS a country's background nodes are currently landing in.
type asPool struct {
	asn  geo.ASN
	used int
}

func (w *World) newASPools(capacity int) asPools {
	return asPools{world: w, capacity: capacity, current: make(map[geo.CountryCode]*asPool)}
}

// bgAS returns a background AS for a country, creating orgs/ASes on demand.
func (a *asPools) bgAS(cc geo.CountryCode) geo.ASN {
	p := a.current[cc]
	if p == nil || p.used >= a.capacity {
		p = &asPool{asn: a.world.newAS(a.world.newOrg("", cc), false)}
		a.current[cc] = p
	}
	p.used++
	return p.asn
}

// fillHarmonic tops a world up with remaining clean nodes spread over
// countries by harmonic weight — country i takes a share proportional to
// 1/(i+2), and at least one node — calling add once per node.
func (w *World) fillHarmonic(countries []geo.CountryCode, remaining int, add func(geo.CountryCode)) {
	if remaining <= 0 {
		return
	}
	var weightSum float64
	for i := range countries {
		weightSum += 1 / float64(i+2)
	}
	for i, cc := range countries {
		n := int(float64(remaining) * (1 / float64(i+2)) / weightSum)
		if n < 1 {
			n = 1
		}
		for j := 0; j < n; j++ {
			add(cc)
		}
	}
}

// pickCountries returns n distinct background countries, deterministically
// pseudo-shuffled, excluding any in the given set.
func (w *World) pickCountries(n int, exclude map[geo.CountryCode]bool) []geo.CountryCode {
	if n <= 0 {
		return nil // the loop below stops only at n, so it would take every country
	}
	var out []geo.CountryCode
	perm := w.rng.Perm(len(geo.Countries))
	for _, i := range perm {
		cc := geo.Countries[i].Code
		if exclude[cc] {
			continue
		}
		out = append(out, cc)
		if len(out) == n {
			break
		}
	}
	return out
}
