package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// verdict is -compare's judgement of one (workload, metric) pair.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictBreach     verdict = "BREACH"
	verdictUnresolved verdict = "unresolved"
	verdictMissing    verdict = "missing"
)

// worsening is by what share of the baseline the candidate is worse, in the
// metric's own direction; negative means it got better.
func worsening(def metricDef, base, cand float64) float64 {
	if base == 0 {
		return 0
	}
	d := (cand - base) / base
	if def.Better == "higher" {
		d = -d
	}
	if base < 0 {
		d = -d
	}
	return d
}

// allBetter reports whether every candidate sample reads better than every
// baseline sample.
func allBetter(def metricDef, base, cand []float64) bool {
	for _, c := range cand {
		for _, b := range base {
			if def.Better == "lower" && c >= b || def.Better == "higher" && c <= b {
				return false
			}
		}
	}
	return len(base) > 0 && len(cand) > 0
}

// judge applies a metric's own bound. When either side's run-to-run spread
// (quartile distance over median, as the contract's driver computes it) is
// wider than the bound, the pair is unresolved, not unchanged, unless every
// candidate sample beats every baseline sample.
func judge(def metricDef, base, cand []float64) (verdict, float64) {
	if len(base) == 0 || len(cand) == 0 {
		return verdictMissing, 0
	}
	w := worsening(def, median(base), median(cand))
	if spreadShare(base) > def.Bound || spreadShare(cand) > def.Bound {
		if allBetter(def, base, cand) {
			return verdictOK, w
		}
		return verdictUnresolved, w
	}
	if w > def.Bound {
		return verdictBreach, w
	}
	return verdictOK, w
}

// pooled gathers a metric's samples over every run of a workload and pass
// in a set file (a file may hold several sets: -out appends).
func pooled(s *setFile, workload string, trace int, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		v, ok := r.Metrics[metric]
		if !ok {
			continue
		}
		if len(v.Samples) > 0 {
			out = append(out, v.Samples...)
		} else {
			out = append(out, v.Value)
		}
	}
	return out
}

// compareSets prints every (workload, end-to-end metric) delta of cand
// against base with its verdict, then the per-layer deltas without one
// (they carry no bound: they say which layer paid). It returns the number
// of breaches and of unresolved pairs.
func compareSets(w io.Writer, base, cand *setFile) (breaches, unresolved int, err error) {
	if base.Fingerprint != cand.Fingerprint {
		return 0, 0, fmt.Errorf("refusing to compare across hosts: %+v vs %+v", base.Fingerprint, cand.Fingerprint)
	}
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tcandidate\tworse by\tbound\tspread base/cand\tverdict")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			b, c := pooled(base, wl.Name, 0, def.Name), pooled(cand, wl.Name, 0, def.Name)
			v, worse := judge(def, b, c)
			switch v {
			case verdictMissing:
				continue
			case verdictBreach:
				breaches++
			case verdictUnresolved:
				unresolved++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.1f%%\t%.1f%%/%.1f%%\t%s\n", wl.Name, def.Name,
				median(b), median(c), 100*worse, 100*def.Bound, 100*spreadShare(b), 100*spreadShare(c), v)
		}
	}
	tw.Flush()
	tw = tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	header := false
	for _, wl := range workloads {
		for _, def := range perLayer {
			b, c := pooled(base, wl.Name, 1, def.Name), pooled(cand, wl.Name, 1, def.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			if !header {
				fmt.Fprintln(w, "\nper-layer (no bound; where a difference sits):")
				fmt.Fprintln(tw, "workload\tmetric\tbase\tcandidate\tworse by")
				header = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\n", wl.Name, def.Name, median(b), median(c),
				100*worsening(def, median(b), median(c)))
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "\n%d breach(es), %d unresolved\n", breaches, unresolved)
	return breaches, unresolved, nil
}
