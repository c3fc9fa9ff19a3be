package metrics

import (
	"encoding/json"
	"io"
	"sort"
)

// HistogramSnapshot is a histogram's frozen state. Counts[i] counts
// observations <= Bounds[i]; the final element of Counts holds the
// overflow bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Mean is the average observed value.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile by linear interpolation within the
// fixed buckets: the rank (q * Count) is located in its bucket, then placed
// proportionally between the bucket's bounds.
//
// The interpolation contract, exactly:
//
//   - An empty histogram (Count == 0) or one with no bounds returns 0.
//   - q is clamped to [0, 1]: out-of-range arguments behave like 0 or 1.
//   - The first bucket interpolates up from zero (all registry histograms
//     observe non-negative values), so q=0 returns the lower edge of the
//     first non-empty bucket (0 when that is the first bucket).
//   - Empty buckets are skipped; a rank never resolves inside a bucket
//     with no observations.
//   - Ranks landing in the overflow bucket — including q=1 when any
//     observation exceeded the last bound — clamp to the last bound, the
//     usual conservative convention for open-ended buckets.
//
// The estimate is exact when observations are uniform within each bucket
// and is always within one bucket width of the true quantile otherwise.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	cum := int64(0)
	for i, c := range h.Counts {
		prev := cum
		cum += c
		if c == 0 || float64(cum) < rank {
			continue
		}
		if i >= len(h.Bounds) {
			break // overflow bucket
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		hi := h.Bounds[i]
		return lo + (hi-lo)*(rank-float64(prev))/float64(c)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Snapshot is a registry's frozen state: the cross-experiment currency of
// the Run API (tft.Run.Metrics) and the JSON body the daemons serve.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Labeled    map[string]map[string]int64  `json:"labeled,omitempty"`
}

// Snapshot freezes the registry. Safe to call concurrently with writers;
// individual instruments are read atomically but the snapshot as a whole
// is not a consistent cut. A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{}
	if r == nil {
		return s
	}
	if counters := r.counters.all(); len(counters) > 0 {
		s.Counters = make(map[string]int64, len(counters))
		for name, c := range counters {
			s.Counters[name] = c.Value()
		}
	}
	if gauges := r.gauges.all(); len(gauges) > 0 {
		s.Gauges = make(map[string]int64, len(gauges))
		for name, g := range gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if histograms := r.histograms.all(); len(histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(histograms))
		for name, h := range histograms {
			hs := HistogramSnapshot{
				Bounds: append([]float64(nil), h.bounds...),
				Counts: make([]int64, len(h.counts)),
				Count:  h.Count(),
				Sum:    h.Sum(),
			}
			for i := range h.counts {
				hs.Counts[i] = h.counts[i].Load()
			}
			s.Histograms[name] = hs
		}
	}
	if labeled := r.labeled.all(); len(labeled) > 0 {
		s.Labeled = make(map[string]map[string]int64, len(labeled))
		for name, lc := range labeled {
			s.Labeled[name] = lc.Values()
		}
	}
	return s
}

// Counter reads a counter from the snapshot (0 when absent or nil).
func (s *Snapshot) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	return s.Counters[name]
}

// TopLabels returns the named labeled counter's labels sorted by
// descending count (ties broken by label), truncated to n (n <= 0 means
// all).
func (s *Snapshot) TopLabels(name string, n int) []LabelCount {
	if s == nil {
		return nil
	}
	m := s.Labeled[name]
	out := make([]LabelCount, 0, len(m))
	for label, count := range m {
		out = append(out, LabelCount{Label: label, Count: count})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Label < out[j].Label
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// LabelCount is one labeled-counter entry.
type LabelCount struct {
	Label string `json:"label"`
	Count int64  `json:"count"`
}

// WriteJSON writes the snapshot as indented JSON — the expvar-style dump
// the daemons expose.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteJSON snapshots the registry and writes it as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	return r.Snapshot().WriteJSON(w)
}
