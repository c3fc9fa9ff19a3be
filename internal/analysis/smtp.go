package analysis

import (
	"fmt"
	"sort"

	"github.com/tftproject/tft/internal/core"
	"github.com/tftproject/tft/internal/geo"
)

// SMTPAnalysis covers the §3.4 extension experiment.
type SMTPAnalysis struct {
	Cfg Config
	Geo *geo.Registry
	DS  *core.SMTPDataset
}

// AnalyzeSMTP wraps a dataset.
func AnalyzeSMTP(cfg Config, reg *geo.Registry, ds *core.SMTPDataset) *SMTPAnalysis {
	return &SMTPAnalysis{Cfg: cfg, Geo: reg, DS: ds}
}

// SMTPSummary is the extension headline.
type SMTPSummary struct {
	MeasuredNodes int
	Blocked       int
	BlockedPct    float64
	Stripped      int
	StrippedPct   float64
	StripperASes  int
}

// Summary computes headline counts.
func (a *SMTPAnalysis) Summary() SMTPSummary {
	s := SMTPSummary{MeasuredNodes: len(a.DS.Observations)}
	strippers := map[geo.ASN]bool{}
	for _, o := range a.DS.Observations {
		switch {
		case o.Blocked:
			s.Blocked++
		case !o.StartTLS:
			s.Stripped++
			strippers[o.ASN] = true
		}
	}
	s.StripperASes = len(strippers)
	if s.MeasuredNodes > 0 {
		s.BlockedPct = 100 * float64(s.Blocked) / float64(s.MeasuredNodes)
		s.StrippedPct = 100 * float64(s.Stripped) / float64(s.MeasuredNodes)
	}
	return s
}

// SMTPRow is one AS-level finding.
type SMTPRow struct {
	ASN      geo.ASN
	ISP      string
	Country  geo.CountryCode
	Kind     string // "port-25 blocked" or "STARTTLS stripped"
	Affected int
	Total    int
}

// Tables renders the extension's findings.
func (a *SMTPAnalysis) Tables() []*Table {
	_, t := a.TableSMTP()
	return []*Table{t}
}

// TableSMTP groups mail-path violations by AS (≥ the scaled server cutoff).
func (a *SMTPAnalysis) TableSMTP() ([]SMTPRow, *Table) {
	type agg struct{ blocked, stripped, total int }
	byAS := map[geo.ASN]*agg{}
	for _, o := range a.DS.Observations {
		ag := byAS[o.ASN]
		if ag == nil {
			ag = &agg{}
			byAS[o.ASN] = ag
		}
		ag.total++
		switch {
		case o.Blocked:
			ag.blocked++
		case !o.StartTLS:
			ag.stripped++
		}
	}
	var rows []SMTPRow
	min := a.Cfg.MinASNodes()
	for asn, ag := range byAS {
		if ag.total < min {
			continue
		}
		mk := func(kind string, n int) {
			if n == 0 || float64(n)/float64(ag.total) < 0.5 {
				return
			}
			row := SMTPRow{ASN: asn, Kind: kind, Affected: n, Total: ag.total}
			if org, ok := a.Geo.Org(asn); ok {
				row.ISP = org.Name
				row.Country = org.Country
			}
			rows = append(rows, row)
		}
		mk("port-25 blocked", ag.blocked)
		mk("STARTTLS stripped", ag.stripped)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Affected != rows[j].Affected {
			return rows[i].Affected > rows[j].Affected
		}
		return rows[i].ASN < rows[j].ASN
	})
	t := &Table{ID: "Extension", Title: "Mail-path violations by AS (§3.4 future work)",
		Headers: []string{"AS", "ISP (Country)", "Violation", "Affected", "Total"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("AS%d", r.ASN),
			fmt.Sprintf("%s (%s)", r.ISP, r.Country),
			r.Kind, itoa(r.Affected), itoa(r.Total),
		})
	}
	return rows, t
}
