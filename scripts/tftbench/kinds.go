package main

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"github.com/tftproject/tft/internal/analysis"
	"github.com/tftproject/tft/internal/cert"
	"github.com/tftproject/tft/internal/content"
	"github.com/tftproject/tft/internal/dataset"
	"github.com/tftproject/tft/internal/dnsserver"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/origin"
	"github.com/tftproject/tft/internal/population"
	"github.com/tftproject/tft/internal/proxynet"
	"github.com/tftproject/tft/internal/simnet"
	"github.com/tftproject/tft/internal/tlssim"
)

// experiment is everything the harness needs that differs between the four
// crawls, reached through leaf-package functions only: the world builder,
// the dataset reader, the analysis calls, the probe-name scheme and the
// per-node call sequence. It names no core.*Experiment and no concrete
// tft.*Run, so collapsing those leaves this file alone.
type experiment struct {
	build func(seed uint64, scale float64) (*population.World, error)
	load  func(r io.Reader) (*loaded, error)
	// classes are the distinct proxied GETs the workload issues; a session
	// is a sum over them. The TLS crawl issues none, and borrows the
	// monitor's so that the GET-path metrics still have a value there.
	classes []getClass
	// session replays the crawl's per-node call sequence through the proxy
	// client, reporting whether every call succeeded.
	session func(d *driver, parent int, in input) bool
}

// getClass is one kind of proxied GET.
type getClass struct {
	remoteDNS bool // the exit node resolves the name (-dns-remote)
	fetches   bool // the exit node then fetches (a d2 probe ends at NXDOMAIN)
	host      func(sess string) string
	path      string
	body      []byte // what the origin serves: the codec drives' body size
}

// loaded is a dataset read back from Run.WriteDataset.
type loaded struct {
	rows  int
	nodes []nodeRef
	// analyze is Analyze<X> over the whole dataset.
	analyze func(cfg analysis.Config, reg *geo.Registry)
	// shards builds two half-dataset aggregates, merges and finalizes
	// them, and returns ns per Observe, ms for Merge, ms for the finalize.
	shards func(cfg analysis.Config, reg *geo.Registry) (observeNs, mergeMs, finalizeMs float64)
}

// nodeRef is what the drives sample from the dataset.
type nodeRef struct {
	zid     string
	country geo.CountryCode
	hosts   []string // TLS: the site targets probed through this node
}

func experimentByName(name string) *experiment {
	switch name {
	case "dns":
		return &experiment{build: population.BuildDNSWorld, load: loadDNS,
			classes: []getClass{
				{remoteDNS: true, fetches: true, host: prefixed("d1-"), path: "/", body: origin.IndexBody()},
				{remoteDNS: true, host: prefixed("d2-"), path: "/", body: origin.IndexBody()},
			}, session: dnsSession}
	case "http":
		e := &experiment{build: population.BuildHTTPWorld, load: loadHTTP, session: httpSession}
		for idx, k := range content.Kinds {
			suffix := "-" + strconv.Itoa(idx)
			e.classes = append(e.classes, getClass{fetches: true,
				host: func(sess string) string { return "h-" + sess + suffix + "." + population.Zone },
				path: k.Path(), body: content.Object(k)})
		}
		return e
	case "tls":
		return &experiment{build: population.BuildTLSWorld, load: loadTLS,
			classes: monitorClasses(), session: tlsSession}
	case "monitor":
		return &experiment{build: population.BuildMonitorWorld, load: loadMonitor,
			classes: monitorClasses(), session: monitorSession}
	}
	panic("tftbench: no adapter for experiment " + name)
}

func monitorClasses() []getClass {
	return []getClass{{fetches: true, host: prefixed("u-"), path: "/", body: origin.IndexBody()}}
}

func prefixed(prefix string) func(string) string {
	return func(sess string) string { return prefix + sess + "." + population.Zone }
}

// installProbeRules points the authority's fallback at every experiment's
// probe-name scheme at once (§4.1 step 1 and its HTTP/monitor cousins):
// d1-, h- and u- names always resolve to the web server; d2- names resolve
// only for the super proxy's resolver egress.
func installProbeRules(w *population.World) {
	w.Auth.SetFallback(func(name string) dnsserver.Rule {
		label, _, ok := strings.Cut(name, ".")
		if !ok {
			return nil
		}
		switch {
		case strings.HasPrefix(label, "d2-"):
			return dnsserver.OnlyFrom(population.WebIP, func(src netip.Addr) bool {
				return src == geo.SuperProxyResolverEgress
			})
		case strings.HasPrefix(label, "d1-"), strings.HasPrefix(label, "h-"), strings.HasPrefix(label, "u-"):
			return dnsserver.Always(population.WebIP)
		}
		return nil
	})
}

// measureShards is the generic body behind loaded.shards.
func measureShards[O, A any](obs []O, cfg analysis.Config, reg *geo.Registry,
	newA func(analysis.Config, *geo.Registry) A, observe func(A, O), merge func(A, A), finalize func(A)) (observeNs, mergeMs, finalizeMs float64) {

	a, b := newA(cfg, reg), newA(cfg, reg)
	half := len(obs) / 2
	t0 := time.Now()
	for _, o := range obs[:half] {
		observe(a, o)
	}
	for _, o := range obs[half:] {
		observe(b, o)
	}
	t1 := time.Now()
	merge(a, b)
	t2 := time.Now()
	finalize(a)
	t3 := time.Now()
	if len(obs) > 0 {
		observeNs = float64(t1.Sub(t0)) / float64(len(obs))
	}
	return observeNs, t2.Sub(t1).Seconds() * 1e3, t3.Sub(t2).Seconds() * 1e3
}

func loadDNS(r io.Reader) (*loaded, error) {
	_, ds, err := dataset.ReadDNS(r)
	if err != nil {
		return nil, err
	}
	l := &loaded{rows: len(ds.Observations)}
	for _, o := range ds.Observations {
		l.nodes = append(l.nodes, nodeRef{zid: o.ZID, country: o.Country})
	}
	l.analyze = func(cfg analysis.Config, reg *geo.Registry) { analysis.AnalyzeDNS(cfg, reg, ds) }
	l.shards = func(cfg analysis.Config, reg *geo.Registry) (float64, float64, float64) {
		return measureShards(ds.Observations, cfg, reg, analysis.NewDNSAnalysis,
			(*analysis.DNSAnalysis).Observe, (*analysis.DNSAnalysis).Merge, (*analysis.DNSAnalysis).Finalize)
	}
	return l, nil
}

func loadHTTP(r io.Reader) (*loaded, error) {
	_, ds, err := dataset.ReadHTTP(r)
	if err != nil {
		return nil, err
	}
	l := &loaded{rows: len(ds.Observations)}
	for _, o := range ds.Observations {
		l.nodes = append(l.nodes, nodeRef{zid: o.ZID, country: o.Country})
	}
	l.analyze = func(cfg analysis.Config, reg *geo.Registry) { analysis.AnalyzeHTTP(cfg, reg, ds).Summary() }
	l.shards = func(cfg analysis.Config, reg *geo.Registry) (float64, float64, float64) {
		return measureShards(ds.Observations, cfg, reg, analysis.NewHTTPAnalysis,
			(*analysis.HTTPAnalysis).Observe, (*analysis.HTTPAnalysis).Merge,
			func(a *analysis.HTTPAnalysis) { a.Summary() })
	}
	return l, nil
}

func loadTLS(r io.Reader) (*loaded, error) {
	_, ds, err := dataset.ReadTLS(r)
	if err != nil {
		return nil, err
	}
	l := &loaded{rows: len(ds.Observations)}
	for _, o := range ds.Observations {
		ref := nodeRef{zid: o.ZID, country: o.Country}
		for _, s := range o.Sites {
			ref.hosts = append(ref.hosts, s.Host)
		}
		l.nodes = append(l.nodes, ref)
	}
	l.analyze = func(cfg analysis.Config, reg *geo.Registry) { analysis.AnalyzeTLS(cfg, reg, ds).Summary() }
	l.shards = func(cfg analysis.Config, reg *geo.Registry) (float64, float64, float64) {
		return measureShards(ds.Observations, cfg, reg, analysis.NewTLSAnalysis,
			(*analysis.TLSAnalysis).Observe, (*analysis.TLSAnalysis).Merge,
			func(a *analysis.TLSAnalysis) { a.Summary() })
	}
	return l, nil
}

func loadMonitor(r io.Reader) (*loaded, error) {
	_, ds, err := dataset.ReadMonitor(r)
	if err != nil {
		return nil, err
	}
	l := &loaded{rows: len(ds.Observations)}
	for _, o := range ds.Observations {
		l.nodes = append(l.nodes, nodeRef{zid: o.ZID, country: o.Country})
	}
	l.analyze = func(cfg analysis.Config, reg *geo.Registry) { analysis.AnalyzeMonitor(cfg, reg, ds).Summary() }
	l.shards = func(cfg analysis.Config, reg *geo.Registry) (float64, float64, float64) {
		return measureShards(ds.Observations, cfg, reg, analysis.NewMonAnalysis,
			(*analysis.MonAnalysis).Observe, (*analysis.MonAnalysis).Merge,
			func(a *analysis.MonAnalysis) { a.Summary() })
	}
	return l, nil
}

// The four session functions replay what core's measure functions do for
// one node, minus the crawler's own bookkeeping (dedup, budget, sinks):
// that remainder is core.self_us_per_session.

// dnsSession is the §4.1 probe: fetch d1, join the web and DNS logs, fetch
// d2 through the same node, read NXDOMAIN or the hijack page.
func dnsSession(d *driver, parent int, in input) bool {
	d1 := d.exp.classes[0].host(in.sess)
	d2 := d.exp.classes[1].host(in.sess)
	defer func() {
		d.w.Auth.Forget(d1)
		d.w.Auth.Forget(d2)
		d.w.Web.Forget(d1)
		d.w.Web.Forget(d2)
	}()
	opts := proxynet.Options{Country: in.country, Session: in.sess, RemoteDNS: true}
	_, dbg1, err := d.get(parent, opts, "http://"+d1+"/")
	if err != nil || dbg1 == nil || dbg1.ZID == "" || dbg1.Err != "" {
		return false
	}
	if len(d.w.Web.RequestsFor(d1)) == 0 {
		return false
	}
	var resolver netip.Addr
	superSeen := false
	for _, q := range d.w.Auth.QueriesFor(d1) {
		if !superSeen && q.Src == geo.SuperProxyResolverEgress {
			superSeen = true
			continue
		}
		resolver = q.Src
	}
	if !resolver.IsValid() || resolver == geo.SuperProxyResolverEgress {
		return true // footnote 8: shared anycast, d2 cannot tell them apart
	}
	resp2, dbg2, err := d.get(parent, opts, "http://"+d2+"/")
	if err != nil || dbg2 == nil {
		return false
	}
	if dbg2.ZID == dbg1.ZID && !dbg2.PeerNXDomain() && resp2.StatusCode == 200 {
		content.ExtractDomains(resp2.Body)
	}
	return true
}

// httpSession is the §5.1 probe: four objects through one node, each
// compared with the canonical bytes.
func httpSession(d *driver, parent int, in input) bool {
	opts := proxynet.Options{Country: in.country, Session: in.sess}
	zid := ""
	for idx, c := range d.exp.classes {
		resp, dbg, err := d.get(parent, opts, "http://"+c.host(in.sess)+c.path)
		if err != nil || dbg == nil || dbg.ZID == "" || dbg.Err != "" {
			if idx == 0 {
				return false
			}
			continue
		}
		if idx == 0 {
			zid = dbg.ZID
		} else if dbg.ZID != zid {
			continue
		}
		if resp.StatusCode == 200 && !bytes.Equal(resp.Body, c.body) && idx == 1 {
			content.CompressionRatio(c.body, resp.Body)
		}
	}
	return true
}

// tlsSession is the §6.1 two-phase scan: three sites, then the full list
// when any of them presented a replaced chain.
func tlsSession(d *driver, parent int, in input) bool {
	sites := d.w.Sites
	popular := sites.Popular[in.country]
	if len(popular) == 0 {
		return false
	}
	rng := simnet.SubRand(d.seed, "tls/"+in.sess)
	phase1 := []*population.Site{
		popular[rng.IntN(len(popular))],
		sites.Universities[rng.IntN(len(sites.Universities))],
		sites.Invalid[rng.IntN(len(sites.Invalid))],
	}
	opts := proxynet.Options{Country: in.country, Session: in.sess}
	zid, anyReplaced := "", false
	probed := map[string]bool{}
	for i, s := range phase1 {
		probed[s.Host] = true
		replaced, dbg, err := d.probeSite(parent, opts, s)
		if err != nil {
			if i == 0 {
				return false
			}
			continue
		}
		if i == 0 {
			zid = dbg.ZID
		} else if dbg.ZID != zid {
			return true
		}
		anyReplaced = anyReplaced || replaced
	}
	if !anyReplaced {
		return true
	}
	full := append(append(append([]*population.Site(nil), popular...), sites.Universities...), sites.Invalid...)
	for _, s := range full {
		if probed[s.Host] {
			continue
		}
		if _, dbg, err := d.probeSite(parent, opts, s); err == nil && dbg.ZID != zid {
			break
		}
	}
	return true
}

// probeSite opens one CONNECT tunnel, collects the chain and judges it.
func (d *driver) probeSite(parent int, opts proxynet.Options, s *population.Site) (replaced bool, dbg *proxynet.Debug, err error) {
	conn, dbg, err := d.connect(parent, opts, s.IP.String()+":443")
	if err != nil {
		return false, dbg, err
	}
	defer conn.Close()
	id := d.rec.start(parent, "tlssim.collect")
	chain, err := tlssim.CollectChain(conn, s.Host)
	d.rec.end(id)
	if err != nil {
		return false, dbg, err
	}
	if len(chain) == 0 {
		return false, dbg, fmt.Errorf("empty chain")
	}
	id = d.rec.start(parent, "cert.verify")
	defer d.rec.end(id)
	cert.MarshalChain(chain) // what the crawl charges to the node's byte budget
	valid := d.w.Trust.Verify(s.Host, chain, d.w.Clock.Now()) == nil
	if s.Invalid {
		return chain[0].Fingerprint() != s.Chain[0].Fingerprint(), dbg, nil
	}
	return !valid, dbg, nil
}

// monitorSession is the §7 probe: one fetch of the node's unique domain.
func monitorSession(d *driver, parent int, in input) bool {
	opts := proxynet.Options{Country: in.country, Session: in.sess}
	_, dbg, err := d.get(parent, opts, "http://"+d.exp.classes[0].host(in.sess)+"/")
	return err == nil && dbg != nil && dbg.ZID != "" && dbg.Err == ""
}
