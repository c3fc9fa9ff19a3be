package metrics

import (
	"bytes"
	"math"
	"regexp"
	"strings"
	"testing"
)

// Quantile interpolates linearly within fixed buckets and clamps ranks in
// the overflow bucket to the last bound.
func TestHistogramQuantile(t *testing.T) {
	// 100 observations spread uniformly through (0, 10]: bucket (0,10] has
	// all of them, so quantiles interpolate across that bucket.
	h := HistogramSnapshot{Bounds: []float64{10, 20}, Counts: []int64{100, 0, 0}, Count: 100}
	if got := h.Quantile(0.5); math.Abs(got-5) > 1e-9 {
		t.Fatalf("p50 = %v, want 5", got)
	}
	if got := h.Quantile(1); math.Abs(got-10) > 1e-9 {
		t.Fatalf("p100 = %v, want 10", got)
	}

	// Across buckets: 50 in (0,10], 50 in (10,20] — p75 is midway through
	// the second bucket.
	h = HistogramSnapshot{Bounds: []float64{10, 20}, Counts: []int64{50, 50, 0}, Count: 100}
	if got := h.Quantile(0.75); math.Abs(got-15) > 1e-9 {
		t.Fatalf("p75 = %v, want 15", got)
	}
	if got := h.Quantile(0.25); math.Abs(got-5) > 1e-9 {
		t.Fatalf("p25 = %v, want 5", got)
	}

	// Overflow ranks clamp to the last bound.
	h = HistogramSnapshot{Bounds: []float64{1}, Counts: []int64{1, 9}, Count: 10}
	if got := h.Quantile(0.99); got != 1 {
		t.Fatalf("overflow quantile = %v, want clamp to 1", got)
	}

	// Degenerate cases stay zero.
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v", got)
	}
}

var (
	promComment = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$`)
	promSample  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.eE+-]+(Inf|NaN)?$`)
)

// The exposition must be structurally valid line-by-line and carry the
// cumulative histogram encoding.
func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("crawl_sessions_total").Add(7)
	r.Gauge("crawl_window_new").Set(3)
	h := r.Histogram("probe_latency", []float64{0.1, 0.5, 1})
	for _, v := range []float64{0.05, 0.3, 0.4, 0.9, 5} {
		h.Observe(v)
	}
	r.Labeled("crawl_sessions_by_country").Inc(`DE"e\x` + "\n")

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	samples := 0
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !promComment.MatchString(line) {
				t.Errorf("malformed comment line %q", line)
			}
			continue
		}
		if !promSample.MatchString(line) {
			t.Errorf("malformed sample line %q", line)
		}
		samples++
	}
	if samples == 0 {
		t.Fatal("no sample lines")
	}
	for _, want := range []string{
		"tft_crawl_sessions_total 7",
		"tft_crawl_window_new 3",
		`tft_probe_latency_bucket{le="0.1"} 1`,
		`tft_probe_latency_bucket{le="0.5"} 3`,
		`tft_probe_latency_bucket{le="1"} 4`,
		`tft_probe_latency_bucket{le="+Inf"} 5`,
		"tft_probe_latency_sum 6.65",
		"tft_probe_latency_count 5",
		`tft_crawl_sessions_by_country{key="DE\"e\\x\n"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// A nil registry's exposition is empty, which is valid.
	buf.Reset()
	var nilReg *Registry
	if err := nilReg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry exposition = %q", buf.String())
	}
}
