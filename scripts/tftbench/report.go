package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"text/tabwriter"
)

// metricValue is one reported number. Samples are the per-repeat readings
// behind a median; -compare pools them to judge the spread.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// runRecord is one (workload, pass) of a set: what a single driver
// invocation measures.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Trace     int                    `json:"trace"`
	Seed      uint64                 `json:"seed"`
	Scale     float64                `json:"scale"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Problems  []string               `json:"problems,omitempty"`

	// HostSpeedIndex is the median host-speed reading of the run over
	// refKernelSeconds: 1 is the reference host in a quiet minute, 1.5 a
	// host half as slow again on memory-bound code.
	HostSpeedIndex float64 `json:"host_speed_index,omitempty"`

	Setups []*setupResult `json:"setups,omitempty"` // one per fresh process
	Crawls []*crawlResult `json:"crawls,omitempty"` // one per fresh process
	Layers *layerResult   `json:"layers,omitempty"`
}

// setFile is what -out writes and -compare reads.
type setFile struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Runs        []runRecord `json:"runs"`
}

// contractLine is the last line of standard output of a single run, with
// exactly the keys the benchmark contract names.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runRecord) contract() contractLine {
	c := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]contractMetric, len(r.Metrics))}
	for name, v := range r.Metrics {
		c.Metrics[name] = contractMetric{Value: v.Value, Unit: v.Unit}
	}
	return c
}

// defsFor returns the metric catalogue of a pass.
func defsFor(trace int) []metricDef {
	if trace == 1 {
		return perLayer
	}
	return endToEnd
}

// print renders one run: every metric of the pass by name, with unit,
// direction and (end to end) bound, then the problems if any.
func (r *runRecord) print(w io.Writer) {
	pass := "untraced, end to end"
	if r.Trace == 1 {
		pass = "traced, per layer"
	}
	fmt.Fprintf(w, "\n== %s (%s) seed %d scale %g: %d sessions", r.Workload, pass, r.Seed, r.Scale, r.Attempted)
	if n := len(r.Crawls); n > 0 {
		fmt.Fprintf(w, ", median of %d fresh processes", n)
	}
	fmt.Fprintln(w)
	if r.HostSpeedIndex > 0 {
		if r.Trace == 0 {
			fmt.Fprintf(w, "host speed index %.3f: setup_s, sessions_per_s, node_us and cpu_us_per_session are at reference host speed; times as measured were %.3f x these\n",
				r.HostSpeedIndex, r.HostSpeedIndex)
		} else {
			fmt.Fprintf(w, "host speed index %.3f (1 = the reference host in a quiet minute): per-layer times are as measured\n", r.HostSpeedIndex)
		}
	}
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	module := ""
	for _, def := range defsFor(r.Trace) {
		v, ok := r.Metrics[def.Name]
		if !ok {
			continue
		}
		if def.Module != module {
			module = def.Module
			fmt.Fprintf(tw, "[%s]\t\t\t\t\n", module)
		}
		bound := ""
		if def.Bound > 0 {
			bound = fmt.Sprintf("bound %.1f%%", 100*def.Bound)
		}
		spread := ""
		if len(v.Samples) > 1 {
			spread = fmt.Sprintf("spread %.1f%% of %d", 100*spreadShare(v.Samples), len(v.Samples))
		}
		fmt.Fprintf(tw, "  %s\t%.6g %s\t%s is better\t%s\t%s\n", def.Name, v.Value, v.Unit, def.Better, bound, spread)
	}
	tw.Flush()
	if r.Layers != nil {
		l := r.Layers
		fmt.Fprintf(w, "timings: p50 and p%g of %d calls per layer; %d spans recorded\n", l.Percentile, l.Samples, l.Spans)
		l.Budget.print(w, r.Workload)
	}
	if r.Correct {
		fmt.Fprintln(w, "correctness check: passed")
	} else {
		fmt.Fprintln(w, "correctness check: FAILED")
		for _, p := range r.Problems {
			fmt.Fprintln(w, "  -", p)
		}
	}
}

// printInteractions prints the prediction table beside the numbers.
func printInteractions(w io.Writer) {
	fmt.Fprintln(w, "\nhow the metrics interact (written down before measuring):")
	for _, in := range interactions {
		fmt.Fprintf(w, "  %s\n    -> %s\n    on %s; predicted flat on: %s\n", in.Layers, in.Moves, in.On, in.Flat)
	}
}

// printList is -list: every workload and metric by name.
func printList(w io.Writer) {
	fmt.Fprintf(w, "workloads (closed loop, one process, %d workers, scale = sizing scale x %g):\n", workers, scaleFactor)
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	for _, wl := range workloads {
		chaos := ""
		if wl.Chaos != "" {
			chaos = " chaos " + wl.Chaos
		}
		fmt.Fprintf(tw, "  %s\t%s scale %g%s\t%s\n", wl.Name, wl.Experiment, wl.scale(), chaos, wl.Why)
	}
	tw.Flush()
	fmt.Fprintln(w, "\nend-to-end metrics (untraced pass; bound = share of the baseline median it may worsen by):")
	tw = tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	for _, m := range endToEnd {
		fmt.Fprintf(tw, "  %s\t%s\t%s\tbound %.1f%%\t%s\n", m.Name, m.Unit, m.Better, 100*m.Bound, m.Help)
	}
	tw.Flush()
	fmt.Fprintln(w, "\nper-layer metrics (traced pass; no bound):")
	tw = tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	for _, m := range perLayer {
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\t%s\n", m.Name, m.Unit, m.Better, m.Module, m.Help)
	}
	tw.Flush()
}

// readSet loads a set file.
func readSet(path string) (*setFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setFile
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// appendSet adds runs to the set file at path, creating it when absent. A
// file from another host is refused rather than mixed.
func appendSet(path string, fp fingerprint, runs []runRecord) error {
	s, err := readSet(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		s = &setFile{Fingerprint: fp}
	case err != nil:
		return err
	case s.Fingerprint != fp:
		return fmt.Errorf("%s was recorded on another host (%+v); not appending runs from %+v", path, s.Fingerprint, fp)
	}
	s.Runs = append(s.Runs, runs...)
	b, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
