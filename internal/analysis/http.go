package analysis

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"github.com/tftproject/tft/internal/content"
	"github.com/tftproject/tft/internal/core"
	"github.com/tftproject/tft/internal/geo"
)

// HTTPAnalysis is the §5 analysis over an HTTP dataset.
type HTTPAnalysis struct {
	Cfg Config
	Geo *geo.Registry
	DS  *core.HTTPDataset
}

// AnalyzeHTTP wraps a dataset for analysis.
func AnalyzeHTTP(cfg Config, reg *geo.Registry, ds *core.HTTPDataset) *HTTPAnalysis {
	return &HTTPAnalysis{Cfg: cfg, Geo: reg, DS: ds}
}

// NewHTTPAnalysis creates an empty aggregate for streaming use; shard
// partials combine with Merge.
func NewHTTPAnalysis(cfg Config, reg *geo.Registry) *HTTPAnalysis {
	return AnalyzeHTTP(cfg, reg, &core.HTTPDataset{})
}

// Observe adds one observation to the aggregate.
func (a *HTTPAnalysis) Observe(o *core.HTTPObservation) {
	a.DS.Observations = append(a.DS.Observations, o)
}

// Merge folds another shard's partial aggregate into a; b must not be used
// afterwards. Every summary and table reduces over unordered maps with
// deterministic sort tie-breakers, so merged partials render identically
// to a single unsharded aggregate.
func (a *HTTPAnalysis) Merge(b *HTTPAnalysis) {
	a.DS.Observations = append(a.DS.Observations, b.DS.Observations...)
}

// HTTPSummary is the §5.2 headline.
type HTTPSummary struct {
	MeasuredNodes int
	ASes          int
	Countries     int
	// HTMLModified includes block pages; HTMLInjected excludes them
	// (the paper's 472 → 440 filtering step).
	HTMLModified  int
	HTMLBlockPage int
	HTMLInjected  int
	ImageModified int
	JSReplaced    int
	CSSReplaced   int
}

// Summary computes headline counts.
func (a *HTTPAnalysis) Summary() HTTPSummary {
	s := HTTPSummary{MeasuredNodes: len(a.DS.Observations)}
	ases := map[geo.ASN]bool{}
	countries := map[geo.CountryCode]bool{}
	for _, o := range a.DS.Observations {
		ases[o.ASN] = true
		countries[o.Country] = true
		html := o.Objects[content.KindHTML]
		switch {
		case html.Outcome == core.ObjBlocked || isBlockPage(html.Body):
			s.HTMLModified++
			s.HTMLBlockPage++
		case html.Outcome == core.ObjModified:
			s.HTMLModified++
			s.HTMLInjected++
		}
		if img := o.Objects[content.KindImage]; img.Outcome == core.ObjModified {
			s.ImageModified++
		}
		if js := o.Objects[content.KindJS]; js.Outcome != core.ObjUnmodified && js.Outcome != core.ObjError {
			s.JSReplaced++
		}
		if css := o.Objects[content.KindCSS]; css.Outcome != core.ObjUnmodified && css.Outcome != core.ObjError {
			s.CSSReplaced++
		}
	}
	s.ASes = len(ases)
	s.Countries = len(countries)
	return s
}

// isBlockPage matches the §5.2 filtering of "bandwidth exceeded"/"blocked"
// responses.
func isBlockPage(body []byte) bool {
	l := bytes.ToLower(body)
	return bytes.Contains(l, []byte("bandwidth exceeded")) || bytes.Contains(l, []byte("blocked"))
}

// InjectionRow is one Table 6 entry.
type InjectionRow struct {
	Signature string
	IsURL     bool
	Nodes     int
	Countries int
	ASes      int
}

// Tables renders the experiment's paper artifacts in report order: Tables
// 6 and 7.
func (a *HTTPAnalysis) Tables() []*Table {
	_, t6 := a.Table6()
	_, t7 := a.Table7()
	return []*Table{t6, t7}
}

// Table6 extracts injected-code signatures from modified HTML and groups
// them, mirroring §5.2's URL/keyword extraction.
func (a *HTTPAnalysis) Table6() ([]InjectionRow, *Table) {
	type agg struct {
		isURL     bool
		nodes     int
		countries map[geo.CountryCode]bool
		ases      map[geo.ASN]bool
	}
	bySig := map[string]*agg{}
	orig := content.Object(content.KindHTML)
	for _, o := range a.DS.Observations {
		html := o.Objects[content.KindHTML]
		if html.Outcome != core.ObjModified || isBlockPage(html.Body) {
			continue
		}
		sig, isURL := ExtractSignature(orig, html.Body)
		if sig == "" {
			sig = "(unidentified)"
		}
		ag := bySig[sig]
		if ag == nil {
			ag = &agg{isURL: isURL, countries: map[geo.CountryCode]bool{}, ases: map[geo.ASN]bool{}}
			bySig[sig] = ag
		}
		ag.nodes++
		ag.countries[o.Country] = true
		ag.ases[o.ASN] = true
	}
	var rows []InjectionRow
	min := a.Cfg.MinRowNodes()
	for sig, ag := range bySig {
		if ag.nodes < min || sig == "(unidentified)" {
			continue
		}
		rows = append(rows, InjectionRow{
			Signature: sig, IsURL: ag.isURL, Nodes: ag.nodes,
			Countries: len(ag.countries), ASes: len(ag.ases),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Nodes != rows[j].Nodes {
			return rows[i].Nodes > rows[j].Nodes
		}
		return rows[i].Signature < rows[j].Signature
	})
	t := &Table{ID: "Table 6", Title: "Most common injected-JavaScript signatures",
		Headers: []string{"URL or Keyword", "Exit Nodes", "Countries", "ASes"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Signature, itoa(r.Nodes), itoa(r.Countries), itoa(r.ASes)})
	}
	return rows, t
}

// ExtractSignature recovers the characteristic URL or keyword from an
// injected page by isolating the bytes not present in the original and
// mining them for a domain or a code token.
func ExtractSignature(orig, modified []byte) (sig string, isURL bool) {
	injected := injectedSegment(orig, modified)
	if len(injected) == 0 {
		return "", false
	}
	// Domains appearing in the injection but not in the original.
	origDoms := map[string]bool{}
	for _, d := range content.ExtractDomains(orig) {
		origDoms[d] = true
	}
	for _, d := range content.ExtractDomains(injected) {
		if !origDoms[d] {
			return d, true
		}
	}
	// Keyword fallback: the first script-ish token line.
	s := strings.TrimSpace(string(injected))
	if i := strings.Index(s, "<script>"); i >= 0 {
		s = s[i+len("<script>"):]
		if j := strings.Index(s, "</script>"); j >= 0 {
			s = s[:j]
		}
	} else if i := strings.Index(s, "name=\""); i >= 0 {
		// Meta-tag filters (NetSpark).
		s = s[i+len("name=\""):]
		if j := strings.IndexByte(s, '"'); j >= 0 {
			return s[:j], false
		}
	}
	s = strings.TrimSpace(s)
	if s == "" {
		return "", false
	}
	if i := strings.IndexAny(s, "\n"); i > 0 {
		s = s[:i]
	}
	if len(s) > 48 {
		s = s[:48]
	}
	return s, false
}

// injectedSegment returns modified minus its longest common prefix/suffix
// with orig.
func injectedSegment(orig, modified []byte) []byte {
	p := 0
	for p < len(orig) && p < len(modified) && orig[p] == modified[p] {
		p++
	}
	so, sm := len(orig), len(modified)
	for so > p && sm > p && orig[so-1] == modified[sm-1] {
		so--
		sm--
	}
	return modified[p:sm]
}

// CompressionRow is one Table 7 entry.
type CompressionRow struct {
	ASN      geo.ASN
	ISP      string
	Country  geo.CountryCode
	Modified int
	Total    int
	// Ratios are the clustered compression ratios ("M" = multiple).
	Ratios []float64
	Mobile bool
}

// RatioLabel renders the ratio column as the paper does.
func (r CompressionRow) RatioLabel() string {
	if len(r.Ratios) > 1 {
		return "M"
	}
	if len(r.Ratios) == 1 {
		return fmt.Sprintf("%.0f%%", 100*r.Ratios[0])
	}
	return "-"
}

// Table7 groups image-modified nodes by AS with per-AS compression ratios.
func (a *HTTPAnalysis) Table7() ([]CompressionRow, *Table) {
	type agg struct {
		modified, total int
		ratios          []float64
	}
	byAS := map[geo.ASN]*agg{}
	for _, o := range a.DS.Observations {
		ag := byAS[o.ASN]
		if ag == nil {
			ag = &agg{}
			byAS[o.ASN] = ag
		}
		ag.total++
		if img := o.Objects[content.KindImage]; img.Outcome == core.ObjModified {
			ag.modified++
			ag.ratios = append(ag.ratios, img.ImageRatio)
		}
	}
	var rows []CompressionRow
	min := a.Cfg.MinASNodes()
	for asn, ag := range byAS {
		if ag.modified == 0 || ag.total < min {
			continue
		}
		row := CompressionRow{ASN: asn, Modified: ag.modified, Total: ag.total,
			Ratios: clusterRatios(ag.ratios)}
		if org, ok := a.Geo.Org(asn); ok {
			row.ISP = org.Name
			row.Country = org.Country
		}
		if as, ok := a.Geo.ASInfo(asn); ok {
			row.Mobile = as.Mobile
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		ri := float64(rows[i].Modified) / float64(rows[i].Total)
		rj := float64(rows[j].Modified) / float64(rows[j].Total)
		if ri != rj {
			return ri > rj
		}
		return rows[i].ASN < rows[j].ASN
	})
	t := &Table{ID: "Table 7", Title: "Exit nodes receiving compressed images, by AS",
		Headers: []string{"AS", "ISP (Country)", "Mod.", "Total", "Ratio", "Cmp.", "Mobile"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("AS%d", r.ASN),
			fmt.Sprintf("%s (%s)", r.ISP, r.Country),
			itoa(r.Modified), itoa(r.Total), pct(r.Modified, r.Total),
			r.RatioLabel(), fmt.Sprintf("%v", r.Mobile),
		})
	}
	return rows, t
}

// clusterRatios collapses observed per-node ratios into the appliance's
// distinct settings (±3 percentage points).
func clusterRatios(ratios []float64) []float64 {
	if len(ratios) == 0 {
		return nil
	}
	sort.Float64s(ratios)
	var out []float64
	start := 0
	for i := 1; i <= len(ratios); i++ {
		if i == len(ratios) || ratios[i]-ratios[i-1] > 0.03 {
			sum := 0.0
			for _, v := range ratios[start:i] {
				sum += v
			}
			out = append(out, sum/float64(i-start))
			start = i
		}
	}
	return out
}
