// Package statusz is the daemons' live-introspection surface: one HTTP
// handler exposing the metrics registry (Prometheus text exposition and
// the expvar-style JSON snapshot), the span collector, the flight
// recorder, and — behind a flag — net/http/pprof. It is the debug listener
// the super proxy mounts on -metrics-addr, playing the role Luminati's
// own debug headers played for the paper: letting an operator ask "what
// happened to request N" while the service is running.
package statusz

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"github.com/tftproject/tft/internal/metrics"
	"github.com/tftproject/tft/internal/progress"
	"github.com/tftproject/tft/internal/trace"
)

// Server wires the introspection endpoints over the process's telemetry.
// Every field is optional: nil sources serve empty-but-valid documents,
// so daemons can mount the surface before deciding which telemetry to
// enable.
type Server struct {
	// Metrics backs /metrics (Prometheus by default, ?format=json for the
	// snapshot).
	Metrics *metrics.Registry
	// Tracer backs /traces.
	Tracer *trace.Tracer
	// Progress backs /progressz — the flight recorder's live crawl view.
	Progress *progress.Tracker
	// Pprof additionally mounts net/http/pprof under /debug/pprof/.
	Pprof bool
	// Log receives one record per request when set.
	Log *slog.Logger
}

// Handler builds the introspection mux:
//
//	/statusz        text overview with endpoint index and telemetry counts
//	/metrics        Prometheus text exposition; ?format=json for the snapshot
//	/progressz      live crawl progress; ?format=json for the full snapshot
//	/traces         recent spans as JSON; ?kind=, ?zid=, ?limit= filters
//	/debug/pprof/   (only when Pprof is set)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/progressz", s.handleProgressz)
	mux.HandleFunc("/traces", s.handleTraces)
	if s.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.logged(mux)
}

func (s *Server) logged(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.Log != nil {
			s.Log.InfoContext(r.Context(), "statusz request",
				"path", r.URL.Path, "remote", r.RemoteAddr)
		}
		next.ServeHTTP(w, r)
	})
}

// Start listens on addr and serves the handler in a background goroutine,
// returning the bound address (useful with ":0" in tests and scripts).
func (s *Server) Start(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() {
		srv := &http.Server{Handler: s.Handler()}
		if err := srv.Serve(l); err != nil && s.Log != nil {
			s.Log.Error("statusz listener stopped", "err", err)
		}
	}()
	return l.Addr(), nil
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	snap := s.Metrics.Snapshot()
	fmt.Fprintln(w, "tft statusz")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "counters:    %d\n", len(snap.Counters))
	fmt.Fprintf(w, "gauges:      %d\n", len(snap.Gauges))
	fmt.Fprintf(w, "histograms:  %d\n", len(snap.Histograms))
	fmt.Fprintf(w, "spans:       %d retained / %d committed\n", s.Tracer.Retained(), s.Tracer.Total())
	fmt.Fprintln(w)
	fmt.Fprintln(w, "endpoints:")
	fmt.Fprintln(w, "  /metrics             Prometheus text exposition")
	fmt.Fprintln(w, "  /metrics?format=json expvar-style snapshot")
	fmt.Fprintln(w, "  /progressz           live crawl progress (?format=json)")
	fmt.Fprintln(w, "  /traces              recent spans (?kind=, ?zid=, ?limit=)")
	if s.Pprof {
		fmt.Fprintln(w, "  /debug/pprof/        runtime profiles")
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		if err := s.Metrics.WriteJSON(w); err != nil && s.Log != nil {
			s.Log.Error("metrics json dump", "err", err)
		}
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.Metrics.WritePrometheus(w); err != nil && s.Log != nil {
		s.Log.Error("metrics exposition", "err", err)
	}
}

// handleProgressz renders the flight recorder's live view of the crawl: a
// plain-text summary by default, the full progress.Status document with
// ?format=json.
func (s *Server) handleProgressz(w http.ResponseWriter, r *http.Request) {
	st := s.Progress.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(st); err != nil && s.Log != nil {
			s.Log.Error("progressz dump", "err", err)
		}
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "tft progressz")
	fmt.Fprintln(w)
	if st.Experiment == "" {
		fmt.Fprintln(w, "no run in progress")
		return
	}
	fmt.Fprintf(w, "experiment:  %s\n", st.Experiment)
	pct := 0.0
	if st.TotalNodes > 0 {
		pct = 100 * float64(st.Done) / float64(st.TotalNodes)
	}
	fmt.Fprintf(w, "nodes:       %d/%d (%.1f%%) done, %d workers, %d shards\n",
		st.Done, st.TotalNodes, pct, st.Workers, len(st.Shards))
	fmt.Fprintf(w, "probes:      %d issued, %d failed, %d duplicate, %d discarded, %d faulted\n",
		st.Probes, st.Failures, st.Duplicates, st.Discarded, st.Faults)
	fmt.Fprintf(w, "violations:  %d\n", st.Violations)
	if sm := st.Sample; sm != nil {
		fmt.Fprintf(w, "throughput:  %.1f probes/s, %.1f nodes/s\n",
			sm.ProbesPerSec, sm.NodesPerSec)
		if sm.ETASeconds >= 0 {
			fmt.Fprintf(w, "eta:         %.0fs\n", sm.ETASeconds)
		} else {
			fmt.Fprintln(w, "eta:         unknown")
		}
	}
	fmt.Fprintf(w, "heap:        %d bytes (peak %d)\n",
		st.Watermarks.HeapBytes, st.Watermarks.PeakHeapBytes)
	fmt.Fprintf(w, "goroutines:  %d (peak %d)\n",
		st.Watermarks.Goroutines, st.Watermarks.PeakGoroutines)
	fmt.Fprintf(w, "gc pause:    %.3fs total\n", st.Watermarks.GCPauseTotalSeconds)
	fmt.Fprintf(w, "stalls:      %d\n", st.Stalls)
}

// parseLimit validates /traces' optional non-negative integer ?limit= value,
// answering the request itself (400 plus the usage line) on a malformed one.
func (s *Server) parseLimit(w http.ResponseWriter, r *http.Request) (int, bool) {
	v := r.URL.Query().Get("limit")
	if v == "" {
		return 0, true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		http.Error(w, fmt.Sprintf("bad limit %q: must be a non-negative integer\nusage: %s", v, tracesUsage()),
			http.StatusBadRequest)
		return 0, false
	}
	return n, true
}

// tracesUsage is /traces' self-describing error text; the kind list comes
// from the span vocabulary, not a hand-maintained copy.
func tracesUsage() string {
	kinds := trace.Kinds()
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = string(k)
	}
	return fmt.Sprintf("/traces?kind=<%s>&zid=<zid>&limit=<non-negative int>",
		strings.Join(names, "|"))
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	kind := trace.Kind(q.Get("kind"))
	if kind != "" && !trace.ValidKind(kind) {
		http.Error(w, fmt.Sprintf("unknown span kind %q\nusage: %s", kind, tracesUsage()),
			http.StatusBadRequest)
		return
	}
	zid := q.Get("zid")
	limit, ok := s.parseLimit(w, r)
	if !ok {
		return
	}
	spans := s.Tracer.Spans()
	out := spans[:0:0]
	for _, d := range spans {
		if kind != "" && d.Kind != kind {
			continue
		}
		if zid != "" && d.Str("zid") != zid {
			continue
		}
		out = append(out, d)
	}
	// Newest last; the limit keeps the most recent spans.
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := trace.WriteJSONL(w, out); err != nil && s.Log != nil {
		s.Log.Error("traces dump", "err", err)
	}
}
