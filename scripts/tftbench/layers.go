package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"github.com/tftproject/tft/internal/analysis"
	"github.com/tftproject/tft/internal/simnet"
)

// layerResult is the traced pass of one workload.
type layerResult struct {
	Crawl   *crawlResult       `json:"crawl"`
	Metrics map[string]float64 `json:"metrics"`
	// Samples is how many timed calls stand behind each percentile metric,
	// and Percentile which one a *_p99_us metric actually reports (the
	// highest with ten samples beyond it).
	Samples    int     `json:"samples"`
	Percentile float64 `json:"percentile"`
	// FailedMetrics names metrics whose check failed (a payload hash that
	// did not match, a drive whose calls errored): reported, never silently
	// fast.
	FailedMetrics []string `json:"failed_metrics,omitempty"`
	Budget        budget   `json:"budget"`
	Spans         int      `json:"spans"`
	Problems      []string `json:"problems,omitempty"`
}

// tracedRun is the second pass over a workload, with the benchmark's span
// recorder on. Stage spans wrap the pipeline calls; the layer drives then
// replay sampled inputs against a world from the same (seed, scale), timing
// each exported call. No end-to-end number comes from here. Spans are
// written to spanOut when the run ends. The two metrics that need another
// process beside this one, trace.overhead_share and host.speed_index, are
// the parent's to fill.
func tracedRun(wl workload, seed uint64, scale float64, cfg layerConfig, spanOut io.Writer) (*layerResult, error) {
	exp := experimentByName(wl.Experiment)
	rec := newRecorder(fmt.Sprintf("%s/%d", wl.Name, seed))
	root := rec.start(0, "workload/"+wl.Name)
	m := map[string]float64{}
	res := &layerResult{Metrics: m}

	id := rec.start(root, "population.build")
	t0 := time.Now()
	if _, err := exp.build(seed, scale); err != nil {
		return nil, err
	}
	m["population.build_s"] = time.Since(t0).Seconds()
	rec.end(id)

	crawl, ds, err := measureCrawl(wl, seed, scale, rec, root)
	if err != nil {
		return nil, err
	}
	res.Crawl = crawl
	res.Problems = append(res.Problems, crawl.Problems...)
	runtime.GC() // the crawl's world is garbage now; do not let it pace the drives

	w, tracer, err := newDriveWorld(wl, exp, seed, scale)
	if err != nil {
		return nil, err
	}
	acfg := analysis.Config{Scale: scale}
	id = rec.start(root, "analysis.analyze")
	t0 = time.Now()
	ds.analyze(acfg, w.Geo)
	m["analysis.analyze_s"] = time.Since(t0).Seconds()
	rec.end(id)
	id = rec.start(root, "analysis.shards")
	m["analysis.observe_ns"], m["analysis.merge_ms"], m["analysis.finalize_ms"] = ds.shards(acfg, w.Geo)
	rec.end(id)

	rows := float64(max(ds.rows, 1))
	m["dataset.write_ns_per_row"] = crawl.DatasetWrite * 1e9 / rows
	m["dataset.read_ns_per_row"] = crawl.DatasetRead * 1e9 / rows
	m["dataset.bytes_per_row"] = float64(crawl.DatasetBytes) / rows
	m["tft.tables_ms"] = crawl.TablesS * 1e3
	m["trace.overhead_share"], m["host.speed_index"] = 1, 1

	s := float64(crawl.Sessions)
	m["core.crawl_s"] = crawl.RunWallS - m["population.build_s"] - m["analysis.analyze_s"]
	m["core.new_node_share"] = float64(crawl.UniqueNodes) / s
	m["core.duplicate_share"] = float64(crawl.Duplicates) / s
	m["core.discarded_share"] = float64(crawl.Discarded) / s
	m["core.failed_share"] = float64(crawl.Failures+crawl.Faults) / s

	if len(ds.nodes) == 0 {
		return nil, fmt.Errorf("%s: the read-back dataset has no node to sample", wl.Name)
	}
	d := &driver{ctx: context.Background(), seed: seed, cfg: cfg, w: w, exp: exp, rec: rec, tracer: tracer}
	d.stage = rec.start(root, "drives")
	lt, err := d.runDrives(wl, ds.nodes, m)
	if err != nil {
		return nil, err
	}
	rec.end(d.stage)
	rec.end(root)

	res.Samples, res.Percentile = cfg.K, pickPercentile(cfg.K)
	res.FailedMetrics = lt.failed
	for _, name := range lt.failed {
		res.Problems = append(res.Problems, "layer metric "+name+" failed its check")
	}

	// core's own share: what two workers spent per session beyond the
	// client calls of the session mix. Sessions that did not finish a node
	// (duplicates, discards, failures) stop after their first call.
	done := float64(crawl.NodesDone) / s
	mix := done*m["client.session_us"] + (1-done)*m["client.first_us"]
	m["core.self_us_per_session"] = workers*m["core.crawl_s"]*1e6/s - mix

	res.Budget = lt.budget(exp, m)
	res.Spans = len(rec.snapshot())
	for _, def := range perLayer {
		switch v, ok := m[def.Name]; {
		case !ok:
			res.Problems = append(res.Problems, "per-layer metric "+def.Name+" was not measured")
		case math.IsNaN(v) || math.IsInf(v, 0):
			res.Problems = append(res.Problems, "per-layer metric "+def.Name+" is not a number")
			m[def.Name] = 0
		}
	}
	if spanOut != nil {
		if err := rec.write(spanOut); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, nil
}

// layerTimings keeps what the budget table needs beyond the flat metrics.
type layerTimings struct {
	sess                                       sessionStats
	get, connect, resolve, fetch, tunnel, dial timing
	materialize, exchange                      timing
	dns                                        codecStats
	http                                       httpStats
	certs                                      certStats
	failed                                     []string
}

// runDrives runs every layer drive and fills m with the flat metrics.
func (d *driver) runDrives(wl workload, nodes []nodeRef, m map[string]float64) (*layerTimings, error) {
	lt := &layerTimings{}
	us := func(ns float64) float64 { return ns / 1e3 }
	// A drive fails its check when its calls error more often than the
	// workload's own faults explain.
	tolerated := d.cfg.K / 50
	if wl.Chaos != "" {
		tolerated = d.cfg.K / 4
	}
	check := func(name string, t timing) {
		if t.Failed > tolerated {
			lt.failed = append(lt.failed, name)
		}
	}
	site := benchTLSSite(d.w) // harmless beside a real registry; used where there is none

	ins := d.sample(nodes, "m", d.cfg.K, nil)
	d.drive("population.materialize", func(int) {
		lt.materialize = loop{n: len(ins), call: func(i int) bool {
			_, ok := d.w.Pool.Get(ins[i].zid)
			return ok
		}}.run()
	})
	m["population.materialize_us"], m["population.materialize_allocs"] = us(lt.materialize.P50), lt.materialize.Allocs
	check("population.materialize_us", lt.materialize)

	lt.dial = d.driveDial("simnet.dial_rt", nil)
	m["simnet.dial_rt_us"], m["simnet.dial_allocs"] = us(lt.dial.P50), lt.dial.Allocs
	check("simnet.dial_rt_us", lt.dial)
	plane := d.w.Fabric.Faults
	if plane == nil {
		prof, _ := simnet.ProfileByName("lossy-links")
		plane = simnet.NewFaultPlane(prof, d.seed, d.w.Clock)
	}
	m["simnet.fault_dial_us"] = us(d.driveDial("simnet.fault_dial", plane).P50)
	lt.exchange = d.driveExchangeDNS()
	m["simnet.exchange_dns_us"], m["simnet.exchange_dns_allocs"] = us(lt.exchange.P50), lt.exchange.Allocs
	check("simnet.exchange_dns_us", lt.exchange)
	for _, p := range []struct {
		name  string
		block int
	}{{"simnet.pipe_mb_s_1k", 1 << 10}, {"simnet.pipe_mb_s_64k", 64 << 10}} {
		d.drive(p.name, func(int) {
			mbps, ok := d.pipeThroughput(p.block)
			m[p.name] = mbps
			if !ok {
				lt.failed = append(lt.failed, p.name)
			}
		})
	}
	m["simnet.timer_ns"] = d.driveTimers()
	if m["simnet.timer_ns"] == 0 {
		lt.failed = append(lt.failed, "simnet.timer_ns")
	}

	lt.dns = d.driveDNSWire()
	m["dnswire.marshal_ns"], m["dnswire.unmarshal_ns"], m["dnswire.allocs"] = lt.dns.marshalNs, lt.dns.unmarshalNs, lt.dns.allocs
	lt.http = d.driveHTTPWire()
	m["httpwire.write_resp_ns"], m["httpwire.read_resp_ns"] = lt.http.writeNs, lt.http.readNs
	m["httpwire.read_resp_allocs"], m["httpwire.mb_s"] = lt.http.readAllocs, lt.http.mbps

	var err error
	if lt.certs, err = d.driveCert(nodes, site); err != nil {
		return nil, err
	}
	m["cert.unmarshal_chain_ns"], m["cert.verify_ns"] = lt.certs.unmarshalNs, lt.certs.verifyNs
	m["tlssim.collect_chain_us"], m["tlssim.collect_chain_allocs"] = us(lt.certs.collect.P50), lt.certs.collect.Allocs
	check("tlssim.collect_chain_us", lt.certs.collect)

	if lt.resolve, err = d.driveResolve(nodes); err != nil {
		return nil, err
	}
	m["exit.resolve_a_us"], m["exit.resolve_a_allocs"] = us(lt.resolve.P50), lt.resolve.Allocs
	check("exit.resolve_a_us", lt.resolve)
	if lt.fetch, err = d.driveFetch(nodes); err != nil {
		return nil, err
	}
	m["exit.fetch_http_us"], m["exit.fetch_http_allocs"] = us(lt.fetch.P50), lt.fetch.Allocs
	check("exit.fetch_http_us", lt.fetch)
	entry := d.installTunnelEntry()
	if lt.tunnel, err = d.driveTunnelSetup(nodes, entry, site); err != nil {
		return nil, err
	}
	m["exit.tunnel_setup_us"] = us(lt.tunnel.P50)
	check("exit.tunnel_setup_us", lt.tunnel)
	// Throughput is measured on clean links whatever the workload: under a
	// chaos profile an injected corruption fails the hash check, as it
	// must, and the metric would say nothing about the splice.
	armed := d.w.Fabric.Faults
	d.w.Fabric.Faults = nil
	mbps, ok, err := d.driveTunnelThroughput(nodes, entry)
	d.w.Fabric.Faults = armed
	if err != nil {
		return nil, err
	}
	m["exit.tunnel_mb_s"] = mbps
	if !ok {
		lt.failed = append(lt.failed, "exit.tunnel_mb_s")
	}

	// The proxied drives come last: their Debug headers feed the attempt
	// tallies, and they are the top of the stack the rows above sit beneath.
	d.requests, d.attempts, d.retried = 0, 0, 0
	lt.get = d.driveGet(nodes)
	m["client.get_us"], m["client.get_p99_us"], m["client.get_allocs"] = us(lt.get.P50), us(lt.get.Hi), lt.get.Allocs
	check("client.get_us", lt.get)
	lt.connect = d.driveConnect(nodes, site)
	m["client.connect_us"], m["client.connect_p99_us"], m["client.connect_allocs"] = us(lt.connect.P50), us(lt.connect.Hi), lt.connect.Allocs
	check("client.connect_us", lt.connect)
	lt.sess = d.driveSessions(nodes)
	m["client.session_us"], m["client.first_us"] = us(lt.sess.session.P50), us(lt.sess.first.P50)
	check("client.session_us", lt.sess.session)
	m["superproxy.attempts_per_req"], m["superproxy.retry_share"] = 1, 0
	if d.requests > 0 {
		m["superproxy.attempts_per_req"] = float64(d.attempts) / float64(d.requests)
		m["superproxy.retry_share"] = float64(d.retried) / float64(d.requests)
	}
	return lt, nil
}
