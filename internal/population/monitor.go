package population

import (
	"context"
	"fmt"
	"net/netip"
	"strings"
	"time"

	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/httpwire"
	"github.com/tftproject/tft/internal/middlebox"
	"github.com/tftproject/tft/internal/origin"
	"github.com/tftproject/tft/internal/simnet"
)

// MonTotalCountries is Table 2's country count for the monitoring
// experiment.
const MonTotalCountries = 167

// BuildMonitorWorld assembles the §7 world: ~747k nodes, a fraction of
// which carry content-monitoring software or sit behind monitoring ISPs
// calibrated to Table 9 and Figure 5.
func BuildMonitorWorld(seed uint64, scale float64) (*World, error) {
	w, err := newWorld(seed, scale, "monitor")
	if err != nil {
		return nil, err
	}
	b := &monBuilder{World: w, asPools: w.newASPools(asCapacity)}
	for i := range Table9 {
		b.buildGroup(&Table9[i])
	}
	b.buildMiscMonitors()
	b.fill()
	return w, nil
}

type monBuilder struct {
	*World
	asPools
	total int
}

// refetchFunc builds a middlebox.Watcher's Refetch: the monitor
// fetches http://host+path from one of its own addresses, now or later on
// the virtual clock, carrying its product's scanner User-Agent (§7.2 mines
// the field); negative delays carry the backdating skew header (see
// origin.SkewHeader).
func (w *World) refetchFunc(userAgent string) func(src netip.Addr, host, path string, delay time.Duration) {
	return func(src netip.Addr, host, path string, delay time.Duration) {
		do := func(skew time.Duration) {
			conn, err := w.Fabric.Dial(context.Background(), src, WebIP, 80)
			if err != nil {
				return
			}
			defer conn.Close()
			req := httpwire.NewRequest("GET", path)
			req.Header.Set("Host", host)
			req.Header.Set("User-Agent", userAgent)
			if skew < 0 {
				req.Header.Set(origin.SkewHeader, skew.String())
			}
			httpwire.Exchange(conn, req)
		}
		if delay < 0 {
			do(delay)
			return
		}
		w.Clock.AfterFunc(delay, func() { do(0) })
	}
}

// scannerUA derives the product's crawler User-Agent.
func scannerUA(product string) string {
	ua := strings.ToLower(strings.ReplaceAll(product, " ", "-"))
	return ua + "-reputation-scanner/1.0"
}

// watcher builds node zid's watcher for product, drawing from the node's
// own random stream.
func (b *monBuilder) watcher(zid, product string, requests []middlebox.RefetchSpec) *middlebox.Watcher {
	return &middlebox.Watcher{
		Product:  product,
		Requests: requests,
		Rand:     simnet.SubRand(b.Seed, "monenv/"+zid),
		Refetch:  b.refetchFunc(scannerUA(product)),
	}
}

// buildGroup instantiates one Table 9 monitoring entity and its covered
// nodes.
func (b *monBuilder) buildGroup(g *MonitorGroup) {
	entOrg := b.namedOrg(geo.OrgID("mon-"+g.Name), g.Name, "US")
	entASN := b.newAS(entOrg, false)
	ips := make([]netip.Addr, b.scaled(g.IPs))
	for i := range ips {
		ips[i] = b.addr(entASN)
	}

	// Split the entity's addresses across its requests; AnchorFree's second
	// request always comes from one address (Menlo Park, §7.2.1).
	reqSources := make([][]netip.Addr, len(g.Requests))
	switch {
	case g.SecondFixedSource:
		// All refetches from one fixed address (AnchorFree's Menlo Park);
		// the other entity addresses are its VPN egress pool.
		for i := range reqSources {
			reqSources[i] = ips[len(ips)-1:]
		}
	case len(g.Requests) == 1:
		reqSources[0] = ips
	default:
		half := (len(ips) + 1) / 2
		reqSources[0] = ips[:half]
		reqSources[1] = ips[half:]
		if len(reqSources[1]) == 0 {
			reqSources[1] = ips
		}
	}

	var requests []middlebox.RefetchSpec
	for i, rs := range g.Requests {
		requests = append(requests, middlebox.RefetchSpec{
			Delay:        middlebox.DelaySpec{Min: rs.Min, Max: rs.Max, LogUniform: rs.LogUniform},
			Sources:      reqSources[i],
			PreFetchProb: rs.PreFetchProb,
			Lead:         middlebox.DelaySpec{Min: rs.LeadMin, Max: rs.LeadMax},
		})
	}

	// VPN egress pool for AnchorFree-style entities: every entity address
	// except the fixed refetch source carries subscriber traffic.
	var vpnEgress []netip.Addr
	if g.VPN {
		vpnEgress = ips[:max(1, len(ips)-1)]
	}

	addMonitored := func(cc geo.CountryCode, asn geo.ASN, i int) {
		node := b.addNode(cc, asn, b.Google, nil)
		path := &middlebox.Path{Monitors: []*middlebox.Watcher{b.watcher(node.ZID(), g.Name, requests)}}
		if g.VPN {
			path.VPNEgress = vpnEgress[i%len(vpnEgress)]
		}
		node.SetPath(path)
		b.labels(node).MonitorProduct = g.Name
		b.total++
	}

	if g.HomeISP != "" {
		// ISP-level monitoring: the entity is the subscribers' own ISP, and
		// only CoverageFrac of its nodes are monitored (opt-in parental
		// controls or sampling, §7.2.2).
		org := b.namedOrg(g.HomeISP, g.HomeISPName, g.HomeCountry)
		asns := make([]geo.ASN, max(1, g.ASes))
		for i := range asns {
			asns[i] = b.newAS(org, false)
		}
		monitored := b.scaled(g.Nodes)
		ispTotal := int(float64(monitored)/g.CoverageFrac + 0.5)
		for i := 0; i < ispTotal; i++ {
			asn := asns[i%len(asns)]
			if i < monitored {
				addMonitored(g.HomeCountry, asn, i)
				continue
			}
			b.addNode(g.HomeCountry, asn, b.Google, nil)
			b.total++
		}
		return
	}

	// Software/VPN monitoring: nodes spread over many countries and ASes.
	countries := b.pickCountries(g.Countries, nil)
	monitored := b.scaled(g.Nodes)
	for i := 0; i < monitored; i++ {
		cc := countries[i%len(countries)]
		addMonitored(cc, b.bgAS(cc), i)
	}
}

// buildMiscMonitors covers the long tail: 48 more AS groups sourcing
// unexpected requests for a few nodes each.
func (b *monBuilder) buildMiscMonitors() {
	nGroups := MiscMonitorGroups
	nodesEach := b.scaledBg(MiscMonitorNodes) / nGroups
	if nodesEach == 0 {
		// At small scales keep a couple of misc groups alive.
		nGroups = min(4, b.scaledBg(MiscMonitorNodes))
		nodesEach = 1
	}
	countries := b.pickCountries(25, nil)
	for gi := 0; gi < nGroups; gi++ {
		name := fmt.Sprintf("misc-monitor-%02d", gi)
		entOrg := b.namedOrg(geo.OrgID("mon-"+name), name, "US")
		entASN := b.newAS(entOrg, false)
		srcs := []netip.Addr{b.addr(entASN)}
		if gi%2 == 0 {
			srcs = append(srcs, b.addr(entASN))
		}
		for i := 0; i < nodesEach; i++ {
			cc := countries[(gi+i)%len(countries)]
			node := b.addNode(cc, b.bgAS(cc), b.Google, nil)
			w := b.watcher(node.ZID(), name, []middlebox.RefetchSpec{{
				Delay:   middlebox.DelaySpec{Min: 5 * time.Second, Max: 900 * time.Second, LogUniform: true},
				Sources: srcs,
			}})
			node.SetPath(&middlebox.Path{Monitors: []*middlebox.Watcher{w}})
			b.labels(node).MonitorProduct = name
			b.total++
		}
	}
}

// fill adds clean nodes up to the Table 2 total across 167 countries.
func (b *monBuilder) fill() {
	remaining := b.scaledBg(MonTotalNodes) - b.total
	b.fillHarmonic(b.pickCountries(MonTotalCountries, nil), remaining, func(cc geo.CountryCode) {
		b.addNode(cc, b.bgAS(cc), b.Google, nil)
	})
}
