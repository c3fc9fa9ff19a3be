package analysis

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"github.com/tftproject/tft/internal/core"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/middlebox"
)

// HijackSource classifies who rewrote a node's NXDOMAIN (§4.3).
type HijackSource int

// The attribution classes of §4.4.
const (
	// SourceISPResolver: the node's ISP-operated DNS server.
	SourceISPResolver HijackSource = iota
	// SourcePublicResolver: a public resolver used from many countries.
	SourcePublicResolver
	// SourceOther: on-path middlebox or end-host software — the node's
	// resolver (often Google) is known honest, yet the answer was rewritten.
	SourceOther
)

// String names the source.
func (s HijackSource) String() string {
	switch s {
	case SourceISPResolver:
		return "ISP DNS server"
	case SourcePublicResolver:
		return "public DNS server"
	case SourceOther:
		return "middlebox/software"
	}
	return fmt.Sprintf("HijackSource(%d)", int(s))
}

// ResolverGroup aggregates the nodes observed behind one resolver egress.
type ResolverGroup struct {
	Addr      netip.Addr
	ASN       geo.ASN
	Org       *geo.Organization
	Nodes     int
	Hijacked  int
	Countries map[geo.CountryCode]int
	// SameOrg: every node's organization matches the resolver's.
	SameOrg bool
}

// HijackRatio is the group's hijacked fraction.
func (g *ResolverGroup) HijackRatio() float64 {
	if g.Nodes == 0 {
		return 0
	}
	return float64(g.Hijacked) / float64(g.Nodes)
}

// IsPublic applies the §4.3.2 heuristic: nodes from more than two
// countries.
func (g *ResolverGroup) IsPublic() bool { return len(g.Countries) > 2 }

// DNSAnalysis is the full §4 analysis over a DNS dataset. It is a
// streaming aggregate: observations feed in one at a time through Observe
// and are reduced immediately into fixed-size tallies, so analysing a
// paper-scale crawl never retains the observations themselves. Partial
// aggregates built on separate worker shards combine with Merge; every
// summary and table is identical whether the observations arrived in one
// stream or were sharded K ways, because each tally is a commutative sum
// and attribution is deferred until the merged resolver groups are known.
type DNSAnalysis struct {
	Cfg Config
	Geo *geo.Registry

	// MeasuredNodes counts observations kept; Filtered counts the
	// shared-anycast-excluded ones.
	MeasuredNodes int
	Filtered      int

	// Groups maps resolver egress to its group.
	Groups map[netip.Addr]*ResolverGroup

	// Attribution per hijacked node. Populated by Finalize (AnalyzeDNS,
	// Summary, and the table builders call it implicitly).
	Attribution   map[HijackSource]int
	HijackedTotal int

	byCC           map[geo.CountryCode]*ccTally
	byAS           map[geo.ASN]*asTally
	googleLandings map[string]*landingTally
	sharedOrgs     map[string]bool
	// hijacked retains, per hijacked node, only what attribution needs:
	// attribution depends on the *globally merged* resolver groups (a
	// resolver's multi-country spread may only appear after Merge), so it
	// cannot be decided per observation.
	hijacked []hijackRef
	final    bool
}

type ccTally struct{ total, hijacked int }

type asTally struct{ total, google int }

type landingTally struct {
	nodes int
	ases  map[geo.ASN]bool
}

type hijackRef struct {
	resolver netip.Addr
	asn      geo.ASN
}

// NewDNSAnalysis creates an empty streaming aggregate. Observe is not safe
// for concurrent use; sharded crawls build one aggregate per shard and
// Merge them.
func NewDNSAnalysis(cfg Config, reg *geo.Registry) *DNSAnalysis {
	return &DNSAnalysis{
		Cfg: cfg, Geo: reg,
		Groups:         make(map[netip.Addr]*ResolverGroup),
		Attribution:    make(map[HijackSource]int),
		byCC:           make(map[geo.CountryCode]*ccTally),
		byAS:           make(map[geo.ASN]*asTally),
		googleLandings: make(map[string]*landingTally),
		sharedOrgs:     make(map[string]bool),
	}
}

// AnalyzeDNS runs grouping and attribution over a fully materialized
// dataset — the convenience path for in-memory runs.
func AnalyzeDNS(cfg Config, reg *geo.Registry, ds *core.DNSDataset) *DNSAnalysis {
	a := NewDNSAnalysis(cfg, reg)
	for _, o := range ds.Observations {
		a.Observe(o)
	}
	a.Finalize()
	return a
}

// Observe folds one observation into the aggregate. The observation is not
// retained.
func (a *DNSAnalysis) Observe(o *core.DNSObservation) {
	a.final = false
	if o.SharedAnycast {
		a.Filtered++
		return
	}
	a.MeasuredNodes++
	g := a.Groups[o.ResolverIP]
	if g == nil {
		g = &ResolverGroup{Addr: o.ResolverIP, Countries: make(map[geo.CountryCode]int), SameOrg: true}
		if asn, ok := a.Geo.LookupAS(o.ResolverIP); ok {
			g.ASN = asn
			g.Org, _ = a.Geo.Org(asn)
		}
		a.Groups[o.ResolverIP] = g
	}
	g.Nodes++
	g.Countries[o.Country]++
	if o.Hijacked {
		g.Hijacked++
	}
	nodeOrg, ok := a.Geo.Org(o.ASN)
	if !ok || g.Org == nil || nodeOrg.ID != g.Org.ID {
		g.SameOrg = false
	}

	cc := a.byCC[o.Country]
	if cc == nil {
		cc = &ccTally{}
		a.byCC[o.Country] = cc
	}
	cc.total++
	as := a.byAS[o.ASN]
	if as == nil {
		as = &asTally{}
		a.byAS[o.ASN] = as
	}
	as.total++
	if geo.IsGoogleEgress(o.ResolverIP) {
		as.google++
	}

	if !o.Hijacked {
		return
	}
	cc.hijacked++
	a.hijacked = append(a.hijacked, hijackRef{resolver: o.ResolverIP, asn: o.ASN})
	if geo.IsGoogleEgress(o.ResolverIP) {
		for _, d := range o.LandingDomains {
			lt := a.googleLandings[d]
			if lt == nil {
				lt = &landingTally{ases: map[geo.ASN]bool{}}
				a.googleLandings[d] = lt
			}
			lt.nodes++
			lt.ases[o.ASN] = true
		}
	}
	if len(o.LandingBody) > 0 && strings.Contains(string(o.LandingBody), middlebox.SharedRedirectJS) {
		if org, ok := a.Geo.Org(o.ASN); ok {
			a.sharedOrgs[org.Name] = true
		}
	}
}

// Merge folds another shard's partial aggregate into a. Both must share
// the same Config and geo registry; b must not be used afterwards. Every
// tally is a commutative sum, so merging K shard partials in any order
// equals analysing the concatenated stream.
func (a *DNSAnalysis) Merge(b *DNSAnalysis) {
	a.final = false
	a.MeasuredNodes += b.MeasuredNodes
	a.Filtered += b.Filtered
	for addr, gb := range b.Groups {
		g := a.Groups[addr]
		if g == nil {
			a.Groups[addr] = gb
			continue
		}
		g.Nodes += gb.Nodes
		g.Hijacked += gb.Hijacked
		for cc, n := range gb.Countries {
			g.Countries[cc] += n
		}
		g.SameOrg = g.SameOrg && gb.SameOrg
	}
	for cc, tb := range b.byCC {
		t := a.byCC[cc]
		if t == nil {
			a.byCC[cc] = tb
			continue
		}
		t.total += tb.total
		t.hijacked += tb.hijacked
	}
	for asn, tb := range b.byAS {
		t := a.byAS[asn]
		if t == nil {
			a.byAS[asn] = tb
			continue
		}
		t.total += tb.total
		t.google += tb.google
	}
	for d, lb := range b.googleLandings {
		lt := a.googleLandings[d]
		if lt == nil {
			a.googleLandings[d] = lb
			continue
		}
		lt.nodes += lb.nodes
		for asn := range lb.ases {
			lt.ases[asn] = true
		}
	}
	for org := range b.sharedOrgs {
		a.sharedOrgs[org] = true
	}
	a.hijacked = append(a.hijacked, b.hijacked...)
}

// Finalize computes the attribution split from the merged resolver groups.
// Idempotent; Summary and the table builders call it implicitly, so
// explicit calls are only needed before reading the Attribution field
// directly.
func (a *DNSAnalysis) Finalize() {
	if a.final {
		return
	}
	a.final = true
	a.HijackedTotal = len(a.hijacked)
	a.Attribution = make(map[HijackSource]int)
	for _, h := range a.hijacked {
		a.Attribution[a.attributeNode(h)]++
	}
}

// attributeNode decides who hijacked one node's response.
func (a *DNSAnalysis) attributeNode(h hijackRef) HijackSource {
	if geo.IsGoogleEgress(h.resolver) {
		// Google is well known not to hijack (§4.3.3): the rewrite happened
		// on the path or on the host.
		return SourceOther
	}
	g := a.Groups[h.resolver]
	nodeOrg, okN := a.Geo.Org(h.asn)
	resOrg, okR := a.Geo.Org(g.ASN)
	if okN && okR && nodeOrg.ID == resOrg.ID {
		return SourceISPResolver
	}
	if g.IsPublic() {
		return SourcePublicResolver
	}
	// A resolver outside the node's ISP serving few countries: most are
	// regional ISP infrastructure shared across sibling orgs; the server
	// itself is still doing the rewriting when its ratio is high.
	if g.HijackRatio() >= HijackServerRatio {
		return SourceISPResolver
	}
	return SourceOther
}

// Summary reports the headline §4.2/§4.4 numbers.
type DNSSummary struct {
	MeasuredNodes   int
	FilteredAnycast int
	UniqueResolvers int
	Hijacked        int
	HijackPct       float64
	Countries       int
	ASes            int
	Attribution     map[HijackSource]int
}

// Summary computes the dataset-wide statistics.
func (a *DNSAnalysis) Summary() DNSSummary {
	a.Finalize()
	s := DNSSummary{
		MeasuredNodes:   a.MeasuredNodes,
		FilteredAnycast: a.Filtered,
		UniqueResolvers: len(a.Groups),
		Hijacked:        a.HijackedTotal,
		Countries:       len(a.byCC),
		ASes:            len(a.byAS),
		Attribution:     a.Attribution,
	}
	if s.MeasuredNodes > 0 {
		s.HijackPct = 100 * float64(s.Hijacked) / float64(s.MeasuredNodes)
	}
	return s
}

// Table3Row is one country's hijack tally.
type Table3Row struct {
	Country  geo.CountryCode
	Hijacked int
	Total    int
}

// Ratio is the country's hijacked fraction.
func (r Table3Row) Ratio() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Hijacked) / float64(r.Total)
}

// Tables renders the experiment's paper artifacts in report order: Tables
// 3 (top ten countries), 4 and 5.
func (a *DNSAnalysis) Tables() []*Table {
	_, t3 := a.Table3(10)
	_, t4 := a.Table4()
	_, t5 := a.Table5()
	return []*Table{t3, t4, t5}
}

// Table3 ranks countries by hijacked ratio (≥ the scaled 100-node cutoff),
// returning the typed rows alongside the rendered table.
func (a *DNSAnalysis) Table3(topN int) ([]Table3Row, *Table) {
	a.Finalize()
	var rows []Table3Row
	min := a.Cfg.MinNodesPerCountry()
	for cc, ct := range a.byCC {
		if ct.total >= min {
			rows = append(rows, Table3Row{Country: cc, Hijacked: ct.hijacked, Total: ct.total})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		ri, rj := rows[i].Ratio(), rows[j].Ratio()
		if ri != rj {
			return ri > rj
		}
		return rows[i].Country < rows[j].Country
	})
	if topN > 0 && len(rows) > topN {
		rows = rows[:topN]
	}
	t := &Table{ID: "Table 3", Title: "Top countries by ratio of hijacked exit nodes",
		Headers: []string{"Rank", "Country", "Hijacked", "Total", "Ratio"}}
	for i, r := range rows {
		t.Rows = append(t.Rows, []string{
			itoa(i + 1), geo.CountryName(r.Country), itoa(r.Hijacked), itoa(r.Total), pct(r.Hijacked, r.Total),
		})
	}
	return rows, t
}

// ISPHijackRow is one Table 4 entry.
type ISPHijackRow struct {
	Country geo.CountryCode
	ISP     string
	Servers int
	Nodes   int
}

// ISPHijackers identifies ISP-provided servers hijacking ≥90% of their
// nodes (§4.3.1), aggregated by organization.
func (a *DNSAnalysis) ISPHijackers() []ISPHijackRow {
	min := a.Cfg.MinNodesPerServer()
	type agg struct {
		row ISPHijackRow
	}
	byOrg := map[geo.OrgID]*agg{}
	for _, g := range a.Groups {
		if g.Org == nil || !g.SameOrg || g.Nodes < min || g.IsPublic() {
			continue
		}
		if g.HijackRatio() < HijackServerRatio {
			continue
		}
		ag := byOrg[g.Org.ID]
		if ag == nil {
			ag = &agg{row: ISPHijackRow{Country: g.Org.Country, ISP: g.Org.Name}}
			byOrg[g.Org.ID] = ag
		}
		ag.row.Servers++
		ag.row.Nodes += g.Nodes
	}
	rows := make([]ISPHijackRow, 0, len(byOrg))
	for _, ag := range byOrg {
		rows = append(rows, ag.row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Country != rows[j].Country {
			return rows[i].Country < rows[j].Country
		}
		return rows[i].ISP < rows[j].ISP
	})
	return rows
}

// Table4 renders the ISP hijacker list, returning the typed rows alongside
// the rendered table.
func (a *DNSAnalysis) Table4() ([]ISPHijackRow, *Table) {
	rows := a.ISPHijackers()
	t := &Table{ID: "Table 4", Title: "ISP DNS servers hijacking responses for >90% of exit nodes",
		Headers: []string{"Country", "ISP", "DNS Servers", "Exit Nodes"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			geo.CountryName(r.Country), r.ISP, itoa(r.Servers), itoa(r.Nodes),
		})
	}
	return rows, t
}

// PublicResolverStats summarises §4.3.2.
type PublicResolverStats struct {
	PublicServers    int
	HijackingServers int
	HijackedNodes    int
	// Operators maps the owning organization of each hijacking server (by
	// BGP prefix ownership) to its server count.
	Operators map[string]int
}

// PublicResolvers applies the multi-country heuristic and the ≥90%
// criterion.
func (a *DNSAnalysis) PublicResolvers() PublicResolverStats {
	min := a.Cfg.MinNodesPerServer()
	st := PublicResolverStats{Operators: map[string]int{}}
	for _, g := range a.Groups {
		if g.Nodes < min || !g.IsPublic() || geo.IsGoogleEgress(g.Addr) {
			continue
		}
		st.PublicServers++
		if g.HijackRatio() >= HijackServerRatio {
			st.HijackingServers++
			st.HijackedNodes += g.Hijacked
			name := "(unknown)"
			if g.Org != nil {
				name = g.Org.Name
			}
			st.Operators[name]++
		}
	}
	return st
}

// Table5Row is one hijack-landing-domain entry for Google-DNS nodes.
type Table5Row struct {
	Domain string
	Nodes  int
	ASes   int
	// Software: spread over many ASes relative to nodes suggests end-host
	// software rather than an ISP path device (§4.3.3).
	Software bool
}

// Table5 analyses nodes hijacked despite using Google DNS: the landing
// domains in the content they received, with AS spread.
func (a *DNSAnalysis) Table5() ([]Table5Row, *Table) {
	a.Finalize()
	var rows []Table5Row
	min := a.Cfg.MinRowNodes()
	for d, ag := range a.googleLandings {
		if ag.nodes < min {
			continue
		}
		rows = append(rows, Table5Row{
			Domain: d, Nodes: ag.nodes, ASes: len(ag.ases),
			// Heuristic from §4.3.3: ISP path devices concentrate in 1–3
			// ASes; software spreads across many.
			Software: len(ag.ases) >= 4 && len(ag.ases)*2 >= ag.nodes,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Nodes != rows[j].Nodes {
			return rows[i].Nodes > rows[j].Nodes
		}
		return rows[i].Domain < rows[j].Domain
	})
	t := &Table{ID: "Table 5", Title: "Domains in hijacked responses of Google-DNS nodes",
		Headers: []string{"URL domain", "Exit Nodes", "ASes", "Likely source"}}
	for _, r := range rows {
		src := "ISP path device"
		if r.Software {
			src = "anti-virus/malware"
		}
		t.Rows = append(t.Rows, []string{r.Domain, itoa(r.Nodes), itoa(r.ASes), src})
	}
	return rows, t
}

// SharedApplianceISPs finds landing pages embedding the byte-identical
// redirect JavaScript block (§4.3.1's five-ISP finding). The fingerprint
// match happens at Observe time, so the landing bodies are never retained.
func (a *DNSAnalysis) SharedApplianceISPs() []string {
	out := make([]string, 0, len(a.sharedOrgs))
	for name := range a.sharedOrgs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ResolverStats summarises the resolver population the way §4.2/§4.3.1 do:
// total unique servers, servers above the observation threshold, and the
// ISP-provided subset (every observed node shares the server's
// organization).
type ResolverStats struct {
	TotalServers int
	// AboveThreshold servers were observed from at least the (scaled) ten
	// nodes the paper requires for statistical significance.
	AboveThreshold int
	// ISPServers is the ISP-provided subset (all sizes); ISPAboveThreshold
	// applies the node cutoff.
	ISPServers        int
	ISPAboveThreshold int
	// HijackingISP counts ISP servers above threshold with ≥90% hijacked.
	HijackingISP int
}

// ResolverStats computes the §4.2 server-population numbers.
func (a *DNSAnalysis) ResolverStats() ResolverStats {
	min := a.Cfg.MinNodesPerServer()
	var st ResolverStats
	for _, g := range a.Groups {
		st.TotalServers++
		if g.Nodes >= min {
			st.AboveThreshold++
		}
		if g.SameOrg && g.Org != nil && !g.IsPublic() {
			st.ISPServers++
			if g.Nodes >= min {
				st.ISPAboveThreshold++
				if g.HijackRatio() >= HijackServerRatio {
					st.HijackingISP++
				}
			}
		}
	}
	return st
}

// GoogleHeavyAS is an AS whose subscribers are pointed at Google DNS —
// footnote 9's finding (91 such ASes; OPT Benin at 99.1%).
type GoogleHeavyAS struct {
	ASN     geo.ASN
	Org     string
	Country geo.CountryCode
	Google  int
	Total   int
}

// Share is the AS's Google-DNS fraction.
func (g GoogleHeavyAS) Share() float64 {
	if g.Total == 0 {
		return 0
	}
	return float64(g.Google) / float64(g.Total)
}

// GoogleHeavyASes lists ASes (≥ the scaled server cutoff of nodes) where at
// least threshold of nodes resolve through Google.
func (a *DNSAnalysis) GoogleHeavyASes(threshold float64) []GoogleHeavyAS {
	min := a.Cfg.MinNodesPerServer()
	var out []GoogleHeavyAS
	for asn, ag := range a.byAS {
		if ag.total < min || float64(ag.google)/float64(ag.total) < threshold {
			continue
		}
		row := GoogleHeavyAS{ASN: asn, Google: ag.google, Total: ag.total}
		if org, ok := a.Geo.Org(asn); ok {
			row.Org = org.Name
			row.Country = org.Country
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		si, sj := out[i].Share(), out[j].Share()
		if si != sj {
			return si > sj
		}
		return out[i].ASN < out[j].ASN
	})
	return out
}

// WaveRow is one longitudinal wave's summary row.
type WaveRow struct {
	Wave      int
	Measured  int
	Hijacked  int
	HijackPct float64
}

// TableLongitudinal renders a hijack-rate time series — the §9 continuous-
// measurement output.
func TableLongitudinal(rows []WaveRow) *Table {
	t := &Table{ID: "Longitudinal", Title: "NXDOMAIN hijacking over repeated weekly crawls (§9)",
		Headers: []string{"Wave", "Measured", "Hijacked", "Rate"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{itoa(r.Wave), itoa(r.Measured), itoa(r.Hijacked),
			fmt.Sprintf("%.2f%%", r.HijackPct)})
	}
	return t
}
