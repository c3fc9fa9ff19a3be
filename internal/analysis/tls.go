package analysis

import (
	"sort"

	"github.com/tftproject/tft/internal/cert"
	"github.com/tftproject/tft/internal/core"
	"github.com/tftproject/tft/internal/geo"
)

// TLSAnalysis is the §6 analysis over a TLS dataset.
type TLSAnalysis struct {
	Cfg Config
	Geo *geo.Registry
	DS  *core.TLSDataset
}

// AnalyzeTLS wraps a dataset.
func AnalyzeTLS(cfg Config, reg *geo.Registry, ds *core.TLSDataset) *TLSAnalysis {
	return &TLSAnalysis{Cfg: cfg, Geo: reg, DS: ds}
}

// NewTLSAnalysis creates an empty aggregate for streaming use; shard
// partials combine with Merge.
func NewTLSAnalysis(cfg Config, reg *geo.Registry) *TLSAnalysis {
	return AnalyzeTLS(cfg, reg, &core.TLSDataset{})
}

// Observe adds one observation to the aggregate.
func (a *TLSAnalysis) Observe(o *core.TLSObservation) {
	a.DS.Observations = append(a.DS.Observations, o)
}

// Merge folds another shard's partial aggregate into a; b must not be used
// afterwards. Summaries and tables reduce over unordered maps with
// deterministic tie-breakers, so merge order never shows in the output.
func (a *TLSAnalysis) Merge(b *TLSAnalysis) {
	a.DS.Observations = append(a.DS.Observations, b.DS.Observations...)
}

// TLSSummary is the §6.2 headline.
type TLSSummary struct {
	MeasuredNodes int
	ASes          int
	Countries     int
	Affected      int
	AffectedPct   float64
	// SelectiveNodes saw some sites replaced and others untouched.
	SelectiveNodes int
	// HighASShare is the fraction of ASes where >10% of nodes are affected
	// (the paper: 1.2% — evidence the cause is host software, not ISPs).
	HighASShare float64
}

// Summary computes headline counts.
func (a *TLSAnalysis) Summary() TLSSummary {
	s := TLSSummary{MeasuredNodes: len(a.DS.Observations)}
	countries := map[geo.CountryCode]bool{}
	type asAgg struct{ total, affected int }
	byAS := map[geo.ASN]*asAgg{}
	for _, o := range a.DS.Observations {
		countries[o.Country] = true
		ag := byAS[o.ASN]
		if ag == nil {
			ag = &asAgg{}
			byAS[o.ASN] = ag
		}
		ag.total++
		if o.AnyReplaced() {
			s.Affected++
			ag.affected++
			replaced, untouched := 0, 0
			for _, site := range o.Sites {
				if site.Err != "" {
					continue
				}
				if site.Replaced {
					replaced++
				} else {
					untouched++
				}
			}
			if replaced > 0 && untouched > 0 {
				s.SelectiveNodes++
			}
		}
	}
	s.ASes = len(byAS)
	s.Countries = len(countries)
	if s.MeasuredNodes > 0 {
		s.AffectedPct = 100 * float64(s.Affected) / float64(s.MeasuredNodes)
	}
	high := 0
	for _, ag := range byAS {
		if ag.total > 0 && float64(ag.affected)/float64(ag.total) > 0.10 {
			high++
		}
	}
	if len(byAS) > 0 {
		s.HighASShare = 100 * float64(high) / float64(len(byAS))
	}
	return s
}

// IssuerKind classifies a replaced-certificate issuer name the way the
// paper's manual investigation did. Unknown issuers are "N/A".
func IssuerKind(issuerCN string) string {
	kinds := map[string]string{
		"Avast Web/Mail Shield Root":         "Anti-Virus/Security",
		"AVG Technologies Root":              "Anti-Virus/Security",
		"BitDefender Personal CA":            "Anti-Virus/Security",
		"ESET SSL Filter CA":                 "Anti-Virus/Security",
		"Kaspersky Anti-Virus Personal Root": "Anti-Virus/Security",
		"OpenDNS Root Certificate Authority": "Content filter",
		"Cyberoam SSL CA":                    "Anti-Virus/Security",
		"Fortigate CA":                       "Anti-Virus/Security",
		"Cloudguard.me":                      "Malware",
		"Dr.Web SpIDer Gate Root":            "Anti-Virus/Security",
		"McAfee Web Gateway":                 "Anti-Virus/Security",
	}
	if k, ok := kinds[issuerCN]; ok {
		return k
	}
	return "N/A"
}

// IssuerRow is one Table 8 entry.
type IssuerRow struct {
	IssuerCN string
	Nodes    int
	Kind     string
	// KeyReuseNodes is how many of the nodes presented a single public key
	// across every spoofed certificate (§6.2's finding for all products but
	// Avast).
	KeyReuseNodes int
	// LaunderNodes replaced an originally-invalid certificate with one
	// carrying the same issuer/key as their valid-site spoofs.
	LaunderNodes int
}

// Tables renders the experiment's paper artifact: Table 8.
func (a *TLSAnalysis) Tables() []*Table {
	_, t8 := a.Table8()
	return []*Table{t8}
}

// Table8 groups affected nodes by the issuer of their replaced
// certificates.
func (a *TLSAnalysis) Table8() ([]IssuerRow, *Table) {
	type agg struct {
		nodes, keyReuse, launder int
	}
	byIssuer := map[string]*agg{}
	for _, o := range a.DS.Observations {
		if !o.AnyReplaced() {
			continue
		}
		// The node's dominant issuer across replaced sites.
		issuerCount := map[string]int{}
		keys := map[string]map[cert.KeyID]bool{}
		launder := map[string]bool{}
		for _, s := range o.Sites {
			if !s.Replaced {
				continue
			}
			issuerCount[s.IssuerCN]++
			if keys[s.IssuerCN] == nil {
				keys[s.IssuerCN] = map[cert.KeyID]bool{}
			}
			keys[s.IssuerCN][s.LeafKey] = true
			if s.Class == core.SiteInvalid {
				launder[s.IssuerCN] = true
			}
		}
		best, bestN := "", 0
		for cn, n := range issuerCount {
			if n > bestN || (n == bestN && cn < best) {
				best, bestN = cn, n
			}
		}
		ag := byIssuer[best]
		if ag == nil {
			ag = &agg{}
			byIssuer[best] = ag
		}
		ag.nodes++
		if bestN > 1 && len(keys[best]) == 1 {
			ag.keyReuse++
		}
		if launder[best] {
			ag.launder++
		}
	}
	var rows []IssuerRow
	min := a.Cfg.MinRowNodes()
	for cn, ag := range byIssuer {
		if ag.nodes < min {
			continue
		}
		name := cn
		if name == "" {
			name = "Empty"
		}
		rows = append(rows, IssuerRow{
			IssuerCN: name, Nodes: ag.nodes, Kind: IssuerKind(cn),
			KeyReuseNodes: ag.keyReuse, LaunderNodes: ag.launder,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Nodes != rows[j].Nodes {
			return rows[i].Nodes > rows[j].Nodes
		}
		return rows[i].IssuerCN < rows[j].IssuerCN
	})
	t := &Table{ID: "Table 8", Title: "Most common issuers of replaced certificates",
		Headers: []string{"Issuer Name", "Exit Nodes", "Type", "Key-reuse", "Replaces invalid"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.IssuerCN, itoa(r.Nodes), r.Kind,
			itoa(r.KeyReuseNodes), itoa(r.LaunderNodes)})
	}
	return rows, t
}
