package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// promPrefix namespaces every exposed series, per Prometheus naming
// conventions for a single-application exporter.
const promPrefix = "tft_"

// promName sanitizes a registry name into a legal Prometheus metric name
// ([a-zA-Z_:][a-zA-Z0-9_:]*) under the tft_ prefix. Registry names are
// already snake_case, so this is a guard, not a transformation.
func promName(name string) string {
	var sb strings.Builder
	sb.WriteString(promPrefix)
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			sb.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// promLabel escapes a label value per the text exposition format.
func promLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// promFloat renders a float sample value.
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): counters and labeled counters as counter
// families, gauges as gauges, histograms as cumulative le-bucketed
// histogram families with _sum and _count. Output is sorted and
// deterministic.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	if s == nil {
		s = &Snapshot{}
	}
	var sb strings.Builder

	for _, name := range sortedNames(s.Counters) {
		n := promName(name)
		fmt.Fprintf(&sb, "# TYPE %s counter\n%s %d\n", n, n, s.Counters[name])
	}

	for _, name := range sortedNames(s.Gauges) {
		n := promName(name)
		fmt.Fprintf(&sb, "# TYPE %s gauge\n%s %d\n", n, n, s.Gauges[name])
	}

	for _, name := range sortedNames(s.Histograms) {
		h := s.Histograms[name]
		n := promName(name)
		fmt.Fprintf(&sb, "# TYPE %s histogram\n", n)
		cum := int64(0)
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(&sb, "%s_bucket{le=%q} %d\n", n, promFloat(bound), cum)
		}
		fmt.Fprintf(&sb, "%s_bucket{le=\"+Inf\"} %d\n", n, h.Count)
		fmt.Fprintf(&sb, "%s_sum %s\n", n, promFloat(h.Sum))
		fmt.Fprintf(&sb, "%s_count %d\n", n, h.Count)
	}

	for _, name := range sortedNames(s.Labeled) {
		m := s.Labeled[name]
		n := promName(name)
		fmt.Fprintf(&sb, "# TYPE %s counter\n", n)
		for _, label := range sortedNames(m) {
			fmt.Fprintf(&sb, "%s{key=\"%s\"} %d\n", n, promLabel(label), m[label])
		}
	}

	_, err := io.WriteString(w, sb.String())
	return err
}

// WritePrometheus snapshots the registry and renders the exposition; a nil
// registry's is empty.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Snapshot().WritePrometheus(w)
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
