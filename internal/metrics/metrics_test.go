package metrics

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sessions")
	const workers, perWorker = 32, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	// The registry returns the same instrument for the same name.
	if r.Counter("sessions") != c {
		t.Fatal("counter identity lost")
	}
}

func TestLabeledCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	lc := r.Labeled("by_country")
	labels := []string{"DE", "US", "BR", "MY", "JP", "IN", "FR", "GB"}
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				lc.Inc(labels[(w+i)%len(labels)])
			}
		}(w)
	}
	wg.Wait()
	total := int64(0)
	for _, lbl := range labels {
		total += lc.Value(lbl)
	}
	if total != workers*perWorker {
		t.Fatalf("labeled total = %d, want %d", total, workers*perWorker)
	}
	vals := lc.Values()
	if len(vals) != len(labels) {
		t.Fatalf("labels = %d, want %d", len(vals), len(labels))
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("window_new")
	g.Set(42)
	g.Add(-2)
	if g.Value() != 40 {
		t.Fatalf("gauge = %d", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rate", []float64{0.1, 0.5, 1.0})
	for _, v := range []float64{0.05, 0.1, 0.3, 0.7, 2.5} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["rate"]
	want := []int64{2, 1, 1, 1} // <=0.1, <=0.5, <=1.0, overflow
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Sum < 3.64 || s.Sum > 3.66 {
		t.Fatalf("sum = %v", s.Sum)
	}
	if m := s.Mean(); m < 0.72 || m > 0.74 {
		t.Fatalf("mean = %v", m)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram([]float64{10, 100})
	const workers, perWorker = 16, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if h.Count() != workers*perWorker {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != workers*perWorker {
		t.Fatalf("sum = %v", h.Sum())
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(5)
	r.Counter("x").Inc()
	r.Gauge("y").Set(3)
	r.Gauge("y").Add(1)
	r.Histogram("z", []float64{1}).Observe(0.5)
	r.Labeled("l").Inc("DE")
	if v := r.Counter("x").Value(); v != 0 {
		t.Fatalf("nil counter = %d", v)
	}
	if v := r.Labeled("l").Value("DE"); v != 0 {
		t.Fatalf("nil labeled = %d", v)
	}
	s := r.Snapshot()
	if s == nil || len(s.Counters) != 0 || len(s.Labeled) != 0 {
		t.Fatalf("nil snapshot = %+v", s)
	}
	if s.Counter("anything") != 0 || len(s.TopLabels("l", 5)) != 0 {
		t.Fatal("empty snapshot accessors broken")
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("crawl_sessions_total").Add(7)
	r.Gauge("crawl_window_new").Set(3)
	r.Histogram("window_rate", []float64{0.05, 0.5}).Observe(0.2)
	r.Labeled("sessions_by_country").Add("MY", 2)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	for _, want := range []string{"crawl_sessions_total", "crawl_window_new", "window_rate", "sessions_by_country", `"MY": 2`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("JSON missing %q:\n%s", want, buf.String())
		}
	}
}

func TestTopLabels(t *testing.T) {
	r := NewRegistry()
	lc := r.Labeled("by_node")
	lc.Add("za", 5)
	lc.Add("zb", 9)
	lc.Add("zc", 9)
	lc.Add("zd", 1)
	top := r.Snapshot().TopLabels("by_node", 3)
	if len(top) != 3 || top[0].Label != "zb" || top[1].Label != "zc" || top[2].Label != "za" {
		t.Fatalf("top = %+v", top)
	}
}

func TestSnapshotConcurrentWithWriters(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 4, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("c").Inc()
				r.Labeled("l").Inc("x")
			}
		}()
	}
	for i := 0; i < 50; i++ {
		_ = r.Snapshot()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counter("c") != workers*perWorker || s.Labeled["l"]["x"] != workers*perWorker {
		t.Fatalf("snapshot missed writes: %+v %+v", s.Counters, s.Labeled)
	}
}
