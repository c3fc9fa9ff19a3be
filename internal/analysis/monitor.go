package analysis

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"github.com/tftproject/tft/internal/core"
	"github.com/tftproject/tft/internal/geo"
)

// MonAnalysis is the §7 analysis over a monitoring dataset.
type MonAnalysis struct {
	Cfg Config
	Geo *geo.Registry
	DS  *core.MonDataset
}

// AnalyzeMonitor wraps a dataset.
func AnalyzeMonitor(cfg Config, reg *geo.Registry, ds *core.MonDataset) *MonAnalysis {
	return &MonAnalysis{Cfg: cfg, Geo: reg, DS: ds}
}

// NewMonAnalysis creates an empty aggregate for streaming use; shard
// partials combine with Merge.
func NewMonAnalysis(cfg Config, reg *geo.Registry) *MonAnalysis {
	return AnalyzeMonitor(cfg, reg, &core.MonDataset{})
}

// Observe adds one observation to the aggregate.
func (a *MonAnalysis) Observe(o *core.MonObservation) {
	a.DS.Observations = append(a.DS.Observations, o)
}

// Merge folds another shard's partial aggregate into a; b must not be used
// afterwards. Summaries and tables reduce over unordered maps with
// deterministic tie-breakers, so merge order never shows in the output.
func (a *MonAnalysis) Merge(b *MonAnalysis) {
	a.DS.Observations = append(a.DS.Observations, b.DS.Observations...)
}

// MonSummary is the §7.2 headline.
type MonSummary struct {
	MeasuredNodes int
	Monitored     int
	MonitoredPct  float64
	UniqueIPs     int
	ASGroups      int
}

// Summary computes headline counts.
func (a *MonAnalysis) Summary() MonSummary {
	s := MonSummary{MeasuredNodes: len(a.DS.Observations)}
	ips := map[netip.Addr]bool{}
	groups := map[geo.ASN]bool{}
	for _, o := range a.DS.Observations {
		if !o.Monitored() {
			continue
		}
		s.Monitored++
		for _, u := range o.Unexpected {
			ips[u.Src] = true
			groups[u.ASN] = true
		}
	}
	s.UniqueIPs = len(ips)
	s.ASGroups = len(groups)
	if s.MeasuredNodes > 0 {
		s.MonitoredPct = 100 * float64(s.Monitored) / float64(s.MeasuredNodes)
	}
	return s
}

// MonitorRow is one Table 9 entry.
type MonitorRow struct {
	Name      string
	IPs       int
	Nodes     int
	ASes      int
	Countries int
	// UserAgent is the most common User-Agent on the entity's requests —
	// §7.2's extra attribution clue.
	UserAgent string
	// Delays are every unexpected-request delay attributed to the entity
	// (feeds Figure 5).
	Delays []time.Duration
}

// Tables renders the experiment's paper artifacts in report order: Table 9
// and Figure 5's quantile table, six entities each.
func (a *MonAnalysis) Tables() []*Table {
	_, t9 := a.Table9(6)
	_, f5 := a.Figure5Table(6)
	return []*Table{t9, f5}
}

// Table9 groups unexpected requests by the organization owning the
// requesting addresses.
func (a *MonAnalysis) Table9(topN int) ([]MonitorRow, *Table) {
	type agg struct {
		ips       map[netip.Addr]bool
		nodes     map[string]bool
		ases      map[geo.ASN]bool
		countries map[geo.CountryCode]bool
		uas       map[string]int
		delays    []time.Duration
	}
	byOrg := map[string]*agg{}
	for _, o := range a.DS.Observations {
		for _, u := range o.Unexpected {
			name := u.Org
			if name == "" {
				name = fmt.Sprintf("AS%d", u.ASN)
			}
			ag := byOrg[name]
			if ag == nil {
				ag = &agg{ips: map[netip.Addr]bool{}, nodes: map[string]bool{},
					ases: map[geo.ASN]bool{}, countries: map[geo.CountryCode]bool{},
					uas: map[string]int{}}
				byOrg[name] = ag
			}
			ag.ips[u.Src] = true
			ag.nodes[o.ZID] = true
			ag.ases[o.ASN] = true
			ag.countries[o.Country] = true
			if u.UserAgent != "" {
				ag.uas[u.UserAgent]++
			}
			ag.delays = append(ag.delays, u.Delay)
		}
	}
	rows := make([]MonitorRow, 0, len(byOrg))
	for name, ag := range byOrg {
		bestUA, bestN := "", 0
		for ua, n := range ag.uas {
			if n > bestN || (n == bestN && ua < bestUA) {
				bestUA, bestN = ua, n
			}
		}
		rows = append(rows, MonitorRow{
			Name: name, IPs: len(ag.ips), Nodes: len(ag.nodes),
			ASes: len(ag.ases), Countries: len(ag.countries),
			UserAgent: bestUA, Delays: ag.delays,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Nodes != rows[j].Nodes {
			return rows[i].Nodes > rows[j].Nodes
		}
		return rows[i].Name < rows[j].Name
	})
	if topN > 0 && len(rows) > topN {
		rows = rows[:topN]
	}
	t := &Table{ID: "Table 9", Title: "Top sources of unexpected (monitoring) requests",
		Headers: []string{"Name", "IPs", "Exit nodes", "ASes", "Countries", "User-Agent"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Name, itoa(r.IPs), itoa(r.Nodes), itoa(r.ASes),
			itoa(r.Countries), r.UserAgent})
	}
	return rows, t
}

// CDF is an empirical distribution over delays.
type CDF struct {
	Name string
	// Sorted delay samples.
	Samples []time.Duration
}

// NewCDF builds a CDF from samples.
func NewCDF(name string, samples []time.Duration) CDF {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return CDF{Name: name, Samples: s}
}

// At returns P(delay <= d).
func (c CDF) At(d time.Duration) float64 {
	if len(c.Samples) == 0 {
		return 0
	}
	lo, hi := 0, len(c.Samples)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.Samples[mid] <= d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return float64(lo) / float64(len(c.Samples))
}

// Quantile returns the q-th sample quantile (0..1).
func (c CDF) Quantile(q float64) time.Duration {
	if len(c.Samples) == 0 {
		return 0
	}
	i := int(q * float64(len(c.Samples)-1))
	return c.Samples[i]
}

// NegativeShare is the fraction of delays below zero — Bluecoat's
// fetch-before-user behaviour makes its CDF "start at 41%" on the paper's
// positive log axis.
func (c CDF) NegativeShare() float64 {
	n := 0
	for _, d := range c.Samples {
		if d < 0 {
			n++
		}
	}
	if len(c.Samples) == 0 {
		return 0
	}
	return float64(n) / float64(len(c.Samples))
}

// Figure5 builds per-entity delay CDFs for the top monitoring sources.
func (a *MonAnalysis) Figure5(topN int) []CDF {
	rows, _ := a.Table9(topN)
	out := make([]CDF, 0, len(rows))
	for _, r := range rows {
		out = append(out, NewCDF(r.Name, r.Delays))
	}
	return out
}

// Figure5Table renders the CDFs as quantile rows (the textual stand-in for
// the paper's plot), returning the typed CDFs alongside the rendered table.
func (a *MonAnalysis) Figure5Table(topN int) ([]CDF, *Table) {
	cdfs := a.Figure5(topN)
	t := &Table{ID: "Figure 5", Title: "Delay between exit-node request and unexpected request (quantiles)",
		Headers: []string{"Name", "neg%", "p10", "p25", "p50", "p75", "p90", "p99"}}
	for _, c := range cdfs {
		t.Rows = append(t.Rows, []string{
			c.Name,
			fmt.Sprintf("%.0f%%", 100*c.NegativeShare()),
			fmtDelay(c.Quantile(0.10)), fmtDelay(c.Quantile(0.25)), fmtDelay(c.Quantile(0.50)),
			fmtDelay(c.Quantile(0.75)), fmtDelay(c.Quantile(0.90)), fmtDelay(c.Quantile(0.99)),
		})
	}
	return cdfs, t
}

func fmtDelay(d time.Duration) string {
	return d.Round(10 * time.Millisecond).String()
}
