package statusz

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/tftproject/tft/internal/metrics"
	"github.com/tftproject/tft/internal/progress"
	"github.com/tftproject/tft/internal/trace"
)

func testServer(t *testing.T, pprof bool) (*Server, *httptest.Server) {
	t.Helper()
	reg := metrics.NewRegistry()
	reg.Counter("crawl_sessions_total").Add(3)

	clock := time.Unix(1460505600, 0)
	tr := trace.New(func() time.Time { clock = clock.Add(time.Millisecond); return clock }, 0)
	root := tr.StartRoot("probe.dns", trace.KindClient)
	child := tr.StartChild(root.Context(), "node.fetch", trace.KindFetch, trace.Str("zid", "z1"))
	child.End()
	root.SetAttrs(trace.Str("zid", "z1"), trace.Str("outcome", "ok"), trace.Str("violation", "dns_hijack"))
	root.End()
	other := tr.StartRoot("probe.http", trace.KindClient, trace.Str("zid", "z2"))
	other.End()
	// A request outside the trace sample: no span, so nothing to count.
	tr.StartChild(trace.Unsampled, "node.fetch", trace.KindFetch).End()

	s := &Server{Metrics: reg, Tracer: tr, Pprof: pprof}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func TestEndpoints(t *testing.T) {
	_, ts := testServer(t, false)

	code, body := get(t, ts.URL+"/statusz")
	if code != http.StatusOK || !strings.Contains(body, "tft statusz") {
		t.Fatalf("/statusz = %d %q", code, body)
	}
	if !strings.Contains(body, "spans:       3 retained / 3 committed\n") {
		t.Errorf("/statusz missing span counts:\n%s", body)
	}

	code, body = get(t, ts.URL+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "tft_crawl_sessions_total 3") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	if !strings.Contains(body, "# TYPE tft_crawl_sessions_total counter") {
		t.Errorf("/metrics missing exposition type line:\n%s", body)
	}

	code, body = get(t, ts.URL+"/metrics?format=json")
	var snap metrics.Snapshot
	if code != http.StatusOK || json.Unmarshal([]byte(body), &snap) != nil {
		t.Fatalf("/metrics?format=json = %d %q", code, body)
	}
	if snap.Counter("crawl_sessions_total") != 3 {
		t.Errorf("json snapshot counter = %d", snap.Counter("crawl_sessions_total"))
	}
}

func TestTracesFiltering(t *testing.T) {
	_, ts := testServer(t, false)

	lines := func(body string) []string {
		body = strings.TrimSpace(body)
		if body == "" {
			return nil
		}
		return strings.Split(body, "\n")
	}

	_, body := get(t, ts.URL+"/traces")
	if n := len(lines(body)); n != 3 {
		t.Fatalf("/traces lines = %d, want 3:\n%s", n, body)
	}
	_, body = get(t, ts.URL+"/traces?kind=fetch")
	got := lines(body)
	if len(got) != 1 || !strings.Contains(got[0], "node.fetch") {
		t.Fatalf("/traces?kind=fetch = %v", got)
	}
	_, body = get(t, ts.URL+"/traces?zid=z2")
	got = lines(body)
	if len(got) != 1 || !strings.Contains(got[0], "probe.http") {
		t.Fatalf("/traces?zid=z2 = %v", got)
	}
	_, body = get(t, ts.URL+"/traces?limit=1")
	got = lines(body)
	if len(got) != 1 || !strings.Contains(got[0], "probe.http") {
		t.Fatalf("/traces?limit=1 should keep the newest span, got %v", got)
	}
	// A node's verdict is on its probe's root span.
	_, body = get(t, ts.URL+"/traces?kind=client&zid=z1")
	got = lines(body)
	if len(got) != 1 || !strings.Contains(got[0], `{"key":"violation","value":"dns_hijack"}`) {
		t.Fatalf("/traces?kind=client&zid=z1 = %v", got)
	}
	code, _ := get(t, ts.URL+"/traces?limit=bogus")
	if code != http.StatusBadRequest {
		t.Fatalf("bad limit = %d, want 400", code)
	}
}

// The event ring's endpoint is gone, not hidden.
func TestEventsEndpointGone(t *testing.T) {
	_, ts := testServer(t, false)
	for _, path := range []string{"/events", "/events?kind=violation&limit=1"} {
		if code, _ := get(t, ts.URL+path); code != http.StatusNotFound {
			t.Errorf("%s = %d, want 404", path, code)
		}
	}
	if _, body := get(t, ts.URL+"/statusz"); strings.Contains(body, "events") {
		t.Errorf("/statusz still mentions events:\n%s", body)
	}
}

// Malformed filter parameters come back as 400s that teach the caller the
// endpoint's query vocabulary instead of a bare error string.
func TestFilterValidation(t *testing.T) {
	_, ts := testServer(t, false)

	cases := []struct {
		path string
		want string // substring the usage text must carry
	}{
		{"/traces?kind=bogus", "superproxy"},
		{"/traces?limit=-1", "non-negative"},
		{"/traces?limit=abc", "usage: /traces"},
		{"/traces?limit=1.5", "non-negative"},
	}
	for _, tc := range cases {
		code, body := get(t, ts.URL+tc.path)
		if code != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", tc.path, code)
		}
		if !strings.Contains(body, tc.want) {
			t.Errorf("%s body %q missing %q", tc.path, body, tc.want)
		}
	}

	// Valid filters still pass.
	code, _ := get(t, ts.URL+"/traces?kind=attempt&limit=5")
	if code != http.StatusOK {
		t.Fatalf("/traces?kind=attempt&limit=5 = %d", code)
	}
}

func TestProgressz(t *testing.T) {
	tk := progress.NewTracker()
	tk.Begin("dns", 40, 4)
	for i := 0; i < 10; i++ {
		tk.Probe(i % 4)
		tk.Done(i % 4)
	}
	tk.Violation(2)
	s := &Server{Progress: tk}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	code, body := get(t, ts.URL+"/progressz")
	if code != http.StatusOK || !strings.Contains(body, "tft progressz") {
		t.Fatalf("/progressz = %d %q", code, body)
	}
	if !strings.Contains(body, "10/40 (25.0%)") {
		t.Errorf("/progressz missing node progress:\n%s", body)
	}
	if !strings.Contains(body, "violations:  1") {
		t.Errorf("/progressz missing violations:\n%s", body)
	}

	code, body = get(t, ts.URL+"/progressz?format=json")
	var st progress.Status
	if code != http.StatusOK || json.Unmarshal([]byte(body), &st) != nil {
		t.Fatalf("/progressz?format=json = %d %q", code, body)
	}
	if st.Experiment != "dns" || st.Done != 10 || st.TotalNodes != 40 || st.Violations != 1 {
		t.Errorf("json status = %+v", st)
	}
	if len(st.Shards) != 4 {
		t.Errorf("json status shards = %d, want 4", len(st.Shards))
	}
}

func TestPprofGating(t *testing.T) {
	_, ts := testServer(t, false)
	code, _ := get(t, ts.URL+"/debug/pprof/cmdline")
	if code != http.StatusNotFound {
		t.Fatalf("pprof off: /debug/pprof/cmdline = %d, want 404", code)
	}

	_, ts2 := testServer(t, true)
	code, _ = get(t, ts2.URL+"/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("pprof on: /debug/pprof/cmdline = %d, want 200", code)
	}
}

// Nil telemetry sources still serve valid (empty) documents.
func TestNilSources(t *testing.T) {
	ts := httptest.NewServer((&Server{}).Handler())
	defer ts.Close()
	for _, path := range []string{"/statusz", "/metrics", "/metrics?format=json", "/traces", "/progressz", "/progressz?format=json"} {
		code, _ := get(t, ts.URL+path)
		if code != http.StatusOK {
			t.Fatalf("%s = %d with nil sources", path, code)
		}
	}
	// An empty exposition is a valid one.
	if _, body := get(t, ts.URL+"/metrics"); body != "" {
		t.Fatalf("nil /metrics = %q", body)
	}
}
