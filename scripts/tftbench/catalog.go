package main

import (
	"fmt"
	"strings"
)

// scaleFactor multiplies every workload's sizing scale by one common factor
// so that a driver invocation (set-up + several fresh-process crawls) stays
// inside the benchmark contract's time cap. The ISSUE sized the five crawls
// at 12-22 s each; at a quarter of that a crawl takes 3-5 s, three to four
// of them fit one ten-second measuring window, and the reported value is
// the median over those fresh processes.
const scaleFactor = 0.25

// workers is the measurement concurrency of every workload: nproc on the
// 2-core reference host. The heap sampler is the only other goroutine the
// benchmark adds.
const workers = 2

// defaultSeed is used when -seed is absent; it is tft.Options' own default.
const defaultSeed = 20160413

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

// workload is one crawl shape. Scale is the ISSUE's sizing scale; the crawl
// runs at Scale*scaleFactor.
type workload struct {
	Name       string
	Experiment string // tft.RunExperiment name
	Scale      float64
	Chaos      string
	// Why is the one-line reason in BENCHMARK.json; the README carries the
	// paragraph.
	Why string
	// VioLo and VioHi bound Violations/NodesDone; they restate the bands of
	// report.go's paper-vs-measured rows (widened by its own loose factor
	// below 4% scale, where named groups are floored at three nodes).
	VioLo, VioHi float64
}

// scale is the crawl's population scale.
func (w workload) scale() float64 { return w.Scale * scaleFactor }

var workloads = []workload{
	{Name: "dns_crawl", Experiment: "dns", Scale: 0.15,
		Why:   "smallest messages, cheapest session, most nodes: per-message cost dominates, payload bytes do not",
		VioLo: 0.030, VioHi: 0.065 * 3},
	{Name: "http_objects", Experiment: "http", Scale: 0.2,
		Why:   "309 KB of objects per node: byte-bound codec, ring copies and content comparison; crawler and dnswire idle",
		VioLo: 0.007, VioHi: 0.10},
	{Name: "tls_tunnels", Experiment: "tls", Scale: 0.08,
		Why:   "CONNECT tunnels carrying certificate chains: splice callbacks, goroutine-per-conn origins, cert and tlssim codecs",
		VioLo: 0.0025, VioHi: 0.012 * 3},
	{Name: "monitor_day", Experiment: "monitor", Scale: 0.15,
		Why:   "the only crawl that advances the virtual clock: 24 simulated hours of refetch timers and the request-log join",
		VioLo: 0.009, VioHi: 0.023 * 3},
	{Name: "dns_lossy", Experiment: "dns", Scale: 0.15, Chaos: "lossy-links",
		Why:   "dns_crawl on the failure path: ring fault hooks, retries, breaker, deadline timers, fault accounting",
		VioLo: 0.030, VioHi: 0.065 * 3},
}

// metricDef names one metric. Bound is the share of the baseline median by
// which an end-to-end metric may worsen; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Module string // per-layer only
	Help   string
}

// endToEnd are the user-visible metrics, measured with the benchmark's own
// spans off.
//
// completed_share is the ISSUE's failed_share turned around: the contract
// wants metrics that are never 0 and bounds that are a share of the
// baseline, and (Failures+Faults)/Sessions is exactly 0 on four workloads;
// 1 minus it is never 0, and 0.3 % of a value that sits at 0.976-1.0 is the
// ISSUE's +0.3 pp.
//
// The bounds are wider than the ISSUE's 10 % / 2 %, each set at about three
// times the spread (quartile distance over median) that ten runs on ten seeds
// measured on the reference host (README, "Spread"): the four times, put at
// reference host speed, spread by 1-8 %; allocations per session by up to
// 4.3 % on http_objects and tls_tunnels, where a new node costs far more than
// a duplicate and the stop rule ends each crawl at another mix of the two;
// the sampled live heap by up to 8.3 %.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Help: "median of repeated standalone population.Build<X>World(seed, scale) calls, at reference host speed"},
	{Name: "sessions_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Help: "Manifest().Sessions / wall of tft.RunExperiment, at reference host speed"},
	{Name: "node_us", Unit: "us", Better: "lower", Bound: 0.25,
		Help: "wall of RunExperiment + WriteDataset(io.Discard) + Tables() / Manifest().NodesDone, at reference host speed"},
	{Name: "cpu_us_per_session", Unit: "us", Better: "lower", Bound: 0.25,
		Help: "process user+sys CPU over the same region / sessions, at reference host speed"},
	{Name: "allocs_per_session", Unit: "count", Better: "lower", Bound: 0.10,
		Help: "MemStats.Mallocs delta / sessions"},
	{Name: "alloc_kb_per_session", Unit: "KB", Better: "lower", Bound: 0.10,
		Help: "MemStats.TotalAlloc delta / sessions"},
	{Name: "peak_live_mb", Unit: "MB", Better: "lower", Bound: 0.25,
		Help: "max /gc/heap/live:bytes sampled every 50 ms plus one reading after a forced GC with the Run referenced"},
	{Name: "completed_share", Unit: "share", Better: "higher", Bound: 0.003,
		Help: "1 - (Failures+Faults)/Sessions from the manifest (failed_share turned around, see README)"},
}

// perLayer are the traced pass's metrics, grouped by the module they
// measure. Every one is measured from outside, through exported calls.
var perLayer = []metricDef{
	{Module: "population", Name: "population.build_s", Unit: "s", Better: "lower", Help: "one standalone world build"},
	{Module: "population", Name: "population.materialize_us", Unit: "us", Better: "lower", Help: "Pool.Get(zid) of a sampled node, p50"},
	{Module: "population", Name: "population.materialize_allocs", Unit: "count", Better: "lower", Help: "allocations per Pool.Get"},

	{Module: "core", Name: "core.crawl_s", Unit: "s", Better: "lower", Help: "RunExperiment - population.build_s - analysis.analyze_s"},
	{Module: "core", Name: "core.new_node_share", Unit: "share", Better: "higher", Help: "UniqueNodes / Sessions: useful outcomes per attempt"},
	{Module: "core", Name: "core.duplicate_share", Unit: "share", Better: "lower", Help: "Duplicates / Sessions"},
	{Module: "core", Name: "core.discarded_share", Unit: "share", Better: "lower", Help: "Discarded / Sessions"},
	{Module: "core", Name: "core.failed_share", Unit: "share", Better: "lower", Help: "(Failures+Faults) / Sessions"},
	{Module: "core", Name: "core.self_us_per_session", Unit: "us", Better: "lower", Help: "workers*crawl_s/Sessions minus the client time of the session mix"},

	{Module: "proxynet.client", Name: "client.get_us", Unit: "us", Better: "lower", Help: "Client.Get of the workload's own URLs, p50"},
	{Module: "proxynet.client", Name: "client.get_p99_us", Unit: "us", Better: "lower", Help: "same, highest percentile with 10 samples beyond it"},
	{Module: "proxynet.client", Name: "client.get_allocs", Unit: "count", Better: "lower", Help: "allocations per Client.Get"},
	{Module: "proxynet.client", Name: "client.connect_us", Unit: "us", Better: "lower", Help: "Client.Connect + Close, p50"},
	{Module: "proxynet.client", Name: "client.connect_p99_us", Unit: "us", Better: "lower", Help: "same, highest percentile with 10 samples beyond it"},
	{Module: "proxynet.client", Name: "client.connect_allocs", Unit: "count", Better: "lower", Help: "allocations per Connect + Close"},
	{Module: "proxynet.client", Name: "client.session_us", Unit: "us", Better: "lower", Help: "the workload's full per-node call sequence, p50"},
	{Module: "proxynet.client", Name: "client.first_us", Unit: "us", Better: "lower", Help: "first call of the sequence (all a duplicate session pays), p50"},

	{Module: "proxynet.superproxy", Name: "superproxy.self_us", Unit: "us", Better: "lower", Help: "request p50 minus the exit, dial and materialize p50s beneath it"},
	{Module: "proxynet.superproxy", Name: "superproxy.attempts_per_req", Unit: "count", Better: "lower", Help: "1 + failed tries in the returned Debug.Attempts, mean"},
	{Module: "proxynet.superproxy", Name: "superproxy.retry_share", Unit: "share", Better: "lower", Help: "requests with at least one failed try"},

	{Module: "proxynet.exit", Name: "exit.resolve_a_us", Unit: "us", Better: "lower", Help: "Peer.ResolveA of the workload's probe names, p50"},
	{Module: "proxynet.exit", Name: "exit.resolve_a_allocs", Unit: "count", Better: "lower", Help: "allocations per ResolveA"},
	{Module: "proxynet.exit", Name: "exit.fetch_http_us", Unit: "us", Better: "lower", Help: "Peer.FetchHTTP of the workload's objects, p50"},
	{Module: "proxynet.exit", Name: "exit.fetch_http_allocs", Unit: "count", Better: "lower", Help: "allocations per FetchHTTP"},
	{Module: "proxynet.exit", Name: "exit.tunnel_setup_us", Unit: "us", Better: "lower", Help: "dial + Peer.Tunnel to a TLS origin + close, no payload, p50"},
	{Module: "proxynet.exit", Name: "exit.tunnel_mb_s", Unit: "MB/s", Better: "higher", Help: "1 MB through Peer.Tunnel, SHA-256 verified, median"},

	{Module: "simnet", Name: "simnet.dial_rt_us", Unit: "us", Better: "lower", Help: "Fabric.Dial + 1-byte echo + close on the world's fabric, p50"},
	{Module: "simnet", Name: "simnet.dial_allocs", Unit: "count", Better: "lower", Help: "allocations per dial round trip"},
	{Module: "simnet", Name: "simnet.exchange_dns_us", Unit: "us", Better: "lower", Help: "Fabric.ExchangeDNS against a canned responder, p50"},
	{Module: "simnet", Name: "simnet.exchange_dns_allocs", Unit: "count", Better: "lower", Help: "allocations per ExchangeDNS"},
	{Module: "simnet", Name: "simnet.pipe_mb_s_1k", Unit: "MB/s", Better: "higher", Help: "simnet.Pipe, 1 KB writes, SHA-256 verified"},
	{Module: "simnet", Name: "simnet.pipe_mb_s_64k", Unit: "MB/s", Better: "higher", Help: "simnet.Pipe, 64 KB writes, SHA-256 verified"},
	{Module: "simnet", Name: "simnet.timer_ns", Unit: "ns", Better: "lower", Help: "Virtual.AfterFunc + Run per timer, 100 K timers"},
	{Module: "simnet", Name: "simnet.fault_dial_us", Unit: "us", Better: "lower", Help: "dial round trip with the lossy-links plane armed, p50"},

	{Module: "dnswire", Name: "dnswire.marshal_ns", Unit: "ns", Better: "lower", Help: "Message.Marshal of the workload's queries and replies, mean"},
	{Module: "dnswire", Name: "dnswire.unmarshal_ns", Unit: "ns", Better: "lower", Help: "dnswire.Unmarshal of the same, mean"},
	{Module: "dnswire", Name: "dnswire.allocs", Unit: "count", Better: "lower", Help: "allocations per marshal + unmarshal"},

	{Module: "httpwire", Name: "httpwire.write_resp_ns", Unit: "ns", Better: "lower", Help: "Response.Write at the workload's body sizes, mean"},
	{Module: "httpwire", Name: "httpwire.read_resp_ns", Unit: "ns", Better: "lower", Help: "ReadResponse of the same, mean"},
	{Module: "httpwire", Name: "httpwire.read_resp_allocs", Unit: "count", Better: "lower", Help: "allocations per ReadResponse"},
	{Module: "httpwire", Name: "httpwire.mb_s", Unit: "MB/s", Better: "higher", Help: "body bytes / (write + read)"},

	{Module: "cert", Name: "cert.unmarshal_chain_ns", Unit: "ns", Better: "lower", Help: "cert.UnmarshalChain of the workload's chains, mean"},
	{Module: "cert", Name: "cert.verify_ns", Unit: "ns", Better: "lower", Help: "Store.Verify of the same, mean"},
	{Module: "tlssim", Name: "tlssim.collect_chain_us", Unit: "us", Better: "lower", Help: "Fabric.Dial + tlssim.CollectChain straight to the origin, p50"},
	{Module: "tlssim", Name: "tlssim.collect_chain_allocs", Unit: "count", Better: "lower", Help: "allocations per direct collect"},

	{Module: "analysis", Name: "analysis.analyze_s", Unit: "s", Better: "lower", Help: "Analyze<X> over the read-back dataset"},
	{Module: "analysis", Name: "analysis.observe_ns", Unit: "ns", Better: "lower", Help: "Observe per observation"},
	{Module: "analysis", Name: "analysis.merge_ms", Unit: "ms", Better: "lower", Help: "Merge of two half-dataset shard aggregates"},
	{Module: "analysis", Name: "analysis.finalize_ms", Unit: "ms", Better: "lower", Help: "Finalize (DNS) or Summary (the others) of the merged aggregate"},

	{Module: "dataset", Name: "dataset.write_ns_per_row", Unit: "ns", Better: "lower", Help: "Run.WriteDataset / rows"},
	{Module: "dataset", Name: "dataset.read_ns_per_row", Unit: "ns", Better: "lower", Help: "dataset.Read<X> / rows"},
	{Module: "dataset", Name: "dataset.bytes_per_row", Unit: "B", Better: "lower", Help: "serialized bytes / rows"},

	{Module: "tft", Name: "tft.tables_ms", Unit: "ms", Better: "lower", Help: "Run.Tables()"},
	{Module: "tft", Name: "trace.overhead_share", Unit: "share", Better: "lower", Help: "traced / untraced RunExperiment wall, each at reference host speed"},

	{Module: "host", Name: "host.speed_index", Unit: "share", Better: "lower", Help: "host-speed kernel seconds beside the traced process / its seconds on the quiet reference host"},
}

// interaction is one row of the prediction table written down before
// measuring: which end-to-end metric each group of layer metrics should
// move, on which workload, and where the prediction is no change.
type interaction struct {
	Layers string
	Moves  string
	On     string
	Flat   string
}

var interactions = []interaction{
	{Layers: "dnswire.*, simnet.exchange_dns_*, exit.resolve_a_*, superproxy.self_us, core.self_us_per_session",
		Moves: "sessions_per_s, cpu_us_per_session, allocs_per_session",
		On:    "dns_crawl, dns_lossy", Flat: "http_objects (< 2 % of a session there)"},
	{Layers: "httpwire.*, simnet.pipe_mb_s_64k, exit.fetch_http_*",
		Moves: "sessions_per_s, alloc_kb_per_session",
		On:    "http_objects", Flat: "dns_crawl"},
	{Layers: "client.connect_*, exit.tunnel_*, tlssim.*, cert.*",
		Moves: "sessions_per_s, allocs_per_session",
		On:    "tls_tunnels", Flat: "every other workload"},
	{Layers: "simnet.timer_ns",
		Moves: "sessions_per_s",
		On:    "monitor_day (and dns_lossy through deadline timers)", Flat: "dns_crawl: its clock never advances"},
	{Layers: "simnet.fault_dial_us, superproxy.attempts_per_req, superproxy.retry_share",
		Moves: "sessions_per_s, completed_share",
		On:    "dns_lossy", Flat: "the four fault-free workloads"},
	{Layers: "simnet.dial_*, simnet.pipe_mb_s_1k, population.materialize_*",
		Moves: "sessions_per_s, cpu_us_per_session",
		On:    "every workload, most on dns_crawl and monitor_day", Flat: "-"},
	{Layers: "population.materialize_*, analysis.*, dataset.*",
		Moves: "peak_live_mb, node_us",
		On:    "dns_crawl, monitor_day, dns_lossy (node-heavy)", Flat: "http_objects"},
	{Layers: "population.build_s",
		Moves: "setup_s",
		On:    "every workload", Flat: "-"},
	{Layers: "any serial saving in one layer (2 workers on 2 cores, GC shares the second core)",
		Moves: "cpu_us_per_session by at most the layer's self-time share; sessions_per_s more only by freeing crawler.mu/taskQueue contention",
		On:    "shows as core.self_us_per_session falling while the single-threaded layer drives stay flat", Flat: "-"},
}

// workloadByName resolves a -workload value; the error lists the valid
// names, in the style of tftlint's analyzer selection.
func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(workloadNames(), ", "))
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}
