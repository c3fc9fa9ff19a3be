package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"net/netip"
	"runtime"
	"time"

	"github.com/tftproject/tft/internal/cert"
	"github.com/tftproject/tft/internal/dnswire"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/httpwire"
	"github.com/tftproject/tft/internal/metrics"
	"github.com/tftproject/tft/internal/origin"
	"github.com/tftproject/tft/internal/population"
	"github.com/tftproject/tft/internal/proxynet"
	"github.com/tftproject/tft/internal/simnet"
	"github.com/tftproject/tft/internal/tlssim"
	"github.com/tftproject/tft/internal/trace"
)

// layerConfig sizes the layer drives.
type layerConfig struct {
	K           int           // inputs replayed per layer
	CodecRounds int           // passes over the K inputs in the ns-scale codec drives
	PipeFor     time.Duration // timed transfer per pipe block size
	TunnelBytes int           // payload of one tunnel transfer
	TunnelReps  int
	Timers      int
}

// layersFor sizes the drives for a measuring window. At the benchmark's own
// ten seconds it is the ISSUE's sizing: K = 2 000 inputs per layer (twenty
// samples beyond p99), one second of timed transfer per pipe block size,
// 100 K timers. -seconds stretches or shrinks the sampled dimensions in
// proportion; the smoke test shrinks every one of them.
func layersFor(s float64) layerConfig {
	return layerConfig{K: int(200 * s), CodecRounds: 10, PipeFor: time.Duration(s / 10 * float64(time.Second)),
		TunnelBytes: 1 << 20, TunnelReps: max(5, int(2.5*s)), Timers: int(10_000 * s)}
}

// Bench-only hosts on the world's fabric. 198.18.0.0/24 is the
// infrastructure block; population uses .10, .22, .53 and .99.
var (
	echoIP    = netip.MustParseAddr("198.18.0.7")  // 1-byte echo, port 7
	cannedDNS = netip.MustParseAddr("198.18.0.8")  // canned DNS responder
	entryIP   = netip.MustParseAddr("198.18.0.9")  // hands its connection to Peer.Tunnel, port 9
	benchSite = netip.MustParseAddr("198.18.0.44") // TLS origin for worlds that have no site registry
	payloadIP = netip.MustParseAddr("198.18.0.45") // serves the tunnel throughput payload on 443
)

// input is one replayed operation: a node sampled from the read-back
// dataset with the workload seed, a fresh session id, and the GET class.
type input struct {
	zid     string
	country geo.CountryCode
	sess    string
	class   int
	site    *population.Site
}

// driver replays inputs against a world built from the same (seed, scale)
// as the crawl and instrumented the way tft instruments it.
type driver struct {
	ctx    context.Context
	seed   uint64
	cfg    layerConfig
	w      *population.World
	exp    *experiment
	rec    *recorder
	tracer *trace.Tracer
	stage  int // span the drives hang under

	// Tallies of the Debug headers the proxy returned.
	requests, attempts, retried int
}

// newDriveWorld builds the drives' world and mirrors tft.Options.instrument
// and applyChaos on it, so that a layer called here does the work it does in
// the crawl: metrics registry and virtual-clock tracer on the super proxy
// and on every materialised node, and under a chaos workload the fault
// plane and the circuit breaker.
func newDriveWorld(wl workload, exp *experiment, seed uint64, scale float64) (*population.World, *trace.Tracer, error) {
	w, err := exp.build(seed, scale)
	if err != nil {
		return nil, nil, err
	}
	reg := metrics.NewRegistry()
	tracer := trace.New(w.Clock.Now, 0)
	w.Super.Metrics, w.Super.Tracer = reg, tracer
	w.Pool.SetPrepare(func(n *proxynet.ExitNode) {
		n.Tracer = tracer
		n.Clock = w.Clock
	})
	if lp, ok := w.Pool.(*proxynet.LazyPool); ok {
		lp.SetMetrics(reg)
	}
	installProbeRules(w)
	if wl.Chaos != "" {
		prof, ok := simnet.ProfileByName(wl.Chaos)
		if !ok {
			return nil, nil, fmt.Errorf("unknown chaos profile %q (have %v)", wl.Chaos, simnet.ProfileNames())
		}
		w.Fabric.Faults = simnet.NewFaultPlane(prof, seed, w.Clock)
		w.Super.Health = proxynet.NewHealthTracker(w.Clock, seed, reg)
	}
	return w, tracer, nil
}

// sample draws k inputs from the dataset's nodes with the workload seed.
// Classes cycle over [0, nclass) so every class gets k/nclass inputs.
func (d *driver) sample(nodes []nodeRef, label string, k int, classes []int) []input {
	rng := simnet.SubRand(d.seed, "tftbench/"+label)
	out := make([]input, k)
	for i := range out {
		n := nodes[rng.IntN(len(nodes))]
		in := input{zid: n.zid, country: n.country, sess: fmt.Sprintf("%s%06d", label, i)}
		if len(classes) > 0 {
			in.class = classes[i%len(classes)]
		}
		if d.w.Sites != nil && len(n.hosts) > 0 {
			in.site, _ = d.w.Sites.ByHost(n.hosts[rng.IntN(len(n.hosts))])
		}
		out[i] = in
	}
	return out
}

// loop times one call per input.
type loop struct {
	n       int
	classes []int // class of input i, nil when the drive has one class
	nclass  int
	// before is untimed preparation; it returns the mallocs it made so the
	// loop can take them out (see mallocsOf).
	before func(i int) uint64
	call   func(i int) bool // the timed exported call; false counts as failed
	after  func(i int)      // untimed cleanup: log forgetting, which allocates nothing
}

// run executes the loop. Each call is timed on its own; allocations are the
// Mallocs delta over the whole loop divided by the calls, which is
// testing.AllocsPerRun's method.
func (l loop) run() timing {
	ns := make([]float64, l.n)
	failed := 0
	var m0, m1 runtime.MemStats
	var hooks uint64
	runtime.ReadMemStats(&m0)
	for i := 0; i < l.n; i++ {
		if l.before != nil {
			hooks += l.before(i)
		}
		t0 := time.Now()
		ok := l.call(i)
		ns[i] = float64(time.Since(t0))
		if !ok {
			failed++
		}
		if l.after != nil {
			l.after(i)
		}
	}
	runtime.ReadMemStats(&m1)
	t := summarise(ns, l.classes, l.nclass)
	t.Allocs = float64(m1.Mallocs-m0.Mallocs-hooks) / float64(l.n)
	t.Failed = failed
	return t
}

// mallocsOf runs f and returns the mallocs it made. A before hook that
// issues a proxied request (the session-pinning GET ahead of a d2 or
// second-object GET) allocates as much as the timed call does.
func mallocsOf(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// meanNs runs f over rounds*n operations and returns the mean ns and the
// allocations per operation: the method for codec calls too short to time
// one by one.
func meanNs(rounds, n int, f func(i int)) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			f(i)
		}
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	ops := float64(rounds * n)
	return float64(el) / ops, float64(m1.Mallocs-m0.Mallocs) / ops
}

// drive records one span around a whole drive and hands f its id.
func (d *driver) drive(name string, f func(span int)) {
	id := d.rec.start(d.stage, "drive/"+name)
	f(id)
	d.rec.end(id)
}

func (d *driver) tally(dbg *proxynet.Debug) {
	if dbg == nil {
		return
	}
	d.requests++
	d.attempts += 1 + len(dbg.Attempts)
	if len(dbg.Attempts) > 0 {
		d.retried++
	}
}

// get is Client.Get under a span.
func (d *driver) get(parent int, o proxynet.Options, url string) (*httpwire.Response, *proxynet.Debug, error) {
	id := d.rec.start(parent, "client.get")
	resp, dbg, err := d.w.Client.Get(d.ctx, o, url)
	d.rec.end(id)
	d.tally(dbg)
	return resp, dbg, err
}

// connect is Client.Connect under a span.
func (d *driver) connect(parent int, o proxynet.Options, target string) (net.Conn, *proxynet.Debug, error) {
	id := d.rec.start(parent, "client.connect")
	conn, dbg, err := d.w.Client.Connect(d.ctx, o, target)
	d.rec.end(id)
	d.tally(dbg)
	return conn, dbg, err
}

// forget releases the authority's and the web server's log entries for a
// probe host, as the crawl does once a probe returns.
func (d *driver) forget(host string) {
	d.w.Auth.Forget(host)
	d.w.Web.Forget(host)
}

// peers materialises the inputs' nodes, untimed.
func (d *driver) peers(ins []input) ([]proxynet.Peer, error) {
	out := make([]proxynet.Peer, len(ins))
	for i, in := range ins {
		p, ok := d.w.Pool.Get(in.zid)
		if !ok {
			return nil, fmt.Errorf("node %s of the read-back dataset is not in a world built from the same seed and scale", in.zid)
		}
		out[i] = p
	}
	return out, nil
}

func classesOf(ins []input) []int {
	cs := make([]int, len(ins))
	for i, in := range ins {
		cs[i] = in.class
	}
	return cs
}

// ---- proxynet.client ------------------------------------------------------

// sessionStats is the session drive's outcome.
type sessionStats struct {
	session timing
	first   timing  // first call of each session
	glueNs  float64 // p50 of the session spans' self time
	// calls is the mean number of child spans of each name per session,
	// childNs their p50 duration.
	calls   map[string]float64
	childNs map[string]float64
	// getCalls[c] and getNs[c] are the same for the c-th client.get of a
	// session, which is the GET of class c: the budget's top rows come
	// from the sessions themselves, so they share its inputs and its
	// moment, and only the layers beneath come from separate drives.
	getCalls, getNs []float64
}

// driveSessions replays the workload's full per-node call sequence. Every
// session is a span whose children are its proxied calls, under a client
// root span of the world's tracer as the crawler opens one per probe.
func (d *driver) driveSessions(nodes []nodeRef) sessionStats {
	ins := d.sample(nodes, "s", d.cfg.K, nil)
	ids := make([]int, len(ins))
	var st sessionStats
	d.drive("client.session", func(drive int) {
		st.session = loop{n: len(ins), call: func(i int) bool {
			in := ins[i]
			root := d.tracer.StartRoot("probe.bench", trace.KindClient,
				trace.Str("session", in.sess), trace.Str("country", string(in.country)))
			defer root.End()
			saved := d.ctx
			d.ctx = trace.NewContext(saved, root.Context())
			defer func() { d.ctx = saved }()
			ids[i] = d.rec.start(drive, "client.session")
			defer d.rec.end(ids[i])
			return d.exp.session(d, ids[i], in)
		}}.run()
	})
	// The per-call breakdown comes from the spans.
	spans := d.rec.snapshot()
	self := selfTimes(spans)
	isSession := make(map[int]bool, len(ids))
	for _, id := range ids {
		isSession[id] = true
	}
	firstOf := make(map[int]float64, len(ids))
	durs := map[string][]float64{}
	getsOf := make(map[int]int, len(ids))
	getDurs := make([][]float64, len(d.exp.classes))
	for _, s := range spans {
		if !isSession[s.Parent] {
			continue
		}
		dur := float64(s.End - s.Start)
		durs[s.Name] = append(durs[s.Name], dur)
		if _, seen := firstOf[s.Parent]; !seen {
			firstOf[s.Parent] = dur
		}
		if s.Name == "client.get" {
			if c := getsOf[s.Parent]; c < len(getDurs) {
				getDurs[c] = append(getDurs[c], dur)
			}
			getsOf[s.Parent]++
		}
	}
	var firsts, glue []float64
	for _, id := range ids {
		if f, ok := firstOf[id]; ok {
			firsts = append(firsts, f)
		}
		glue = append(glue, float64(self[id]))
	}
	st.first = summarise(firsts, nil, 0)
	st.glueNs = median(glue)
	st.calls, st.childNs = map[string]float64{}, map[string]float64{}
	for name, ds := range durs {
		st.calls[name] = float64(len(ds)) / float64(len(ids))
		st.childNs[name] = median(ds)
	}
	for _, ds := range getDurs {
		st.getCalls = append(st.getCalls, float64(len(ds))/float64(len(ids)))
		st.getNs = append(st.getNs, median(ds))
	}
	return st
}

// driveGet times Client.Get over the workload's GET classes. A class other
// than the first rides a session its first-class GET pinned, as in the
// crawl; that pinning GET is untimed.
func (d *driver) driveGet(nodes []nodeRef) timing {
	all := make([]int, len(d.exp.classes))
	for i := range all {
		all[i] = i
	}
	ins := d.sample(nodes, "g", d.cfg.K, all)
	opts := func(in input) proxynet.Options {
		return proxynet.Options{Country: in.country, Session: in.sess, RemoteDNS: d.exp.classes[in.class].remoteDNS}
	}
	url := func(in input, c int) string {
		cl := d.exp.classes[c]
		return "http://" + cl.host(in.sess) + cl.path
	}
	var t timing
	d.drive("client.get", func(int) {
		t = loop{n: len(ins), classes: classesOf(ins), nclass: len(d.exp.classes),
			before: func(i int) uint64 {
				if ins[i].class == 0 {
					return 0
				}
				return mallocsOf(func() { d.w.Client.Get(d.ctx, opts(ins[i]), url(ins[i], 0)) })
			},
			call: func(i int) bool {
				_, dbg, err := d.w.Client.Get(d.ctx, opts(ins[i]), url(ins[i], ins[i].class))
				d.tally(dbg)
				// A d2 probe's honest outcome is NXDOMAIN at the peer.
				return err == nil && dbg != nil && (dbg.Err == "" || dbg.PeerNXDomain())
			},
			after: func(i int) {
				d.forget(d.exp.classes[0].host(ins[i].sess))
				d.forget(d.exp.classes[ins[i].class].host(ins[i].sess))
			}}.run()
	})
	return t
}

// driveConnect times Client.Connect + Close against the sampled site
// targets (or the bench site where the world has no registry).
func (d *driver) driveConnect(nodes []nodeRef, fallback *population.Site) timing {
	ins := d.sample(nodes, "c", d.cfg.K, nil)
	var t timing
	d.drive("client.connect", func(int) {
		t = loop{n: len(ins), call: func(i int) bool {
			site := ins[i].site
			if site == nil {
				site = fallback
			}
			conn, dbg, err := d.w.Client.Connect(d.ctx,
				proxynet.Options{Country: ins[i].country, Session: ins[i].sess}, site.IP.String()+":443")
			d.tally(dbg)
			if err != nil {
				return false
			}
			conn.Close()
			return true
		}}.run()
	})
	return t
}

// ---- proxynet.exit --------------------------------------------------------

// driveResolve times Peer.ResolveA on the classes the exit node resolves
// (every class where none does, so the metric always has a value).
func (d *driver) driveResolve(nodes []nodeRef) (timing, error) {
	var cs []int
	for i, c := range d.exp.classes {
		if c.remoteDNS {
			cs = append(cs, i)
		}
	}
	if cs == nil {
		cs = []int{0}
	}
	ins := d.sample(nodes, "r", d.cfg.K, cs)
	peers, err := d.peers(ins)
	if err != nil {
		return timing{}, err
	}
	names := make([]string, len(ins))
	for i, in := range ins {
		names[i] = d.exp.classes[in.class].host(in.sess)
	}
	var t timing
	d.drive("exit.resolve_a", func(int) {
		t = loop{n: len(ins), classes: classesOf(ins), nclass: len(d.exp.classes),
			call: func(i int) bool {
				_, rc, err := peers[i].ResolveA(d.ctx, names[i])
				return err == nil && rc != dnswire.RCodeServFail
			},
			after: func(i int) { d.w.Auth.Forget(names[i]) }}.run()
	})
	return t, nil
}

// driveFetch times Peer.FetchHTTP on the classes that fetch.
func (d *driver) driveFetch(nodes []nodeRef) (timing, error) {
	var cs []int
	for i, c := range d.exp.classes {
		if c.fetches {
			cs = append(cs, i)
		}
	}
	ins := d.sample(nodes, "f", d.cfg.K, cs)
	peers, err := d.peers(ins)
	if err != nil {
		return timing{}, err
	}
	hosts := make([]string, len(ins))
	for i, in := range ins {
		hosts[i] = d.exp.classes[in.class].host(in.sess)
	}
	var t timing
	d.drive("exit.fetch_http", func(int) {
		t = loop{n: len(ins), classes: classesOf(ins), nclass: len(d.exp.classes),
			call: func(i int) bool {
				resp, err := peers[i].FetchHTTP(d.ctx, hosts[i], 80, d.exp.classes[ins[i].class].path, population.WebIP)
				return err == nil && resp != nil
			},
			after: func(i int) { d.w.Web.Forget(hosts[i]) }}.run()
	})
	return t, nil
}

// tunnelEntry registers the bench host that hands its accepted connection
// to whichever peer and target the drive set, the way SuperProxy's CONNECT
// handler does once it has answered 200. The ready byte makes the dialer's
// first read run the handler.
type tunnelEntry struct {
	peer proxynet.Peer
	ip   netip.Addr
}

func (d *driver) installTunnelEntry() *tunnelEntry {
	e := &tunnelEntry{}
	d.w.Fabric.HandleTCP(entryIP, 9, func(c net.Conn) {
		if _, err := c.Write([]byte{1}); err != nil {
			c.Close()
			return
		}
		if !e.peer.Tunnel(d.ctx, c, e.ip, 443, nil) {
			c.Close()
		}
	})
	return e
}

// open dials the entry and waits for the tunnel to be armed.
func (e *tunnelEntry) open(d *driver, peer proxynet.Peer, ip netip.Addr) (net.Conn, error) {
	e.peer, e.ip = peer, ip
	conn, err := d.w.Fabric.Dial(d.ctx, population.ClientIP, entryIP, 9)
	if err != nil {
		return nil, err
	}
	var ready [1]byte
	if _, err := io.ReadFull(conn, ready[:]); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// driveTunnelSetup times dial + Peer.Tunnel to a TLS origin + close with no
// payload: what a CONNECT costs beneath the super proxy.
func (d *driver) driveTunnelSetup(nodes []nodeRef, entry *tunnelEntry, fallback *population.Site) (timing, error) {
	ins := d.sample(nodes, "t", d.cfg.K, nil)
	peers, err := d.peers(ins)
	if err != nil {
		return timing{}, err
	}
	var t timing
	d.drive("exit.tunnel_setup", func(int) {
		t = loop{n: len(ins), call: func(i int) bool {
			site := ins[i].site
			if site == nil {
				site = fallback
			}
			conn, err := entry.open(d, peers[i], site.IP)
			if err != nil {
				return false
			}
			conn.Close()
			return true
		}}.run()
	})
	return t, nil
}

// plainPath reports whether a node relays port 443 byte for byte: no TLS
// interceptor parsing the handshake, no stream rewriter, no port block. The
// throughput payload is not a TLS handshake, so only such nodes carry it.
func plainPath(p proxynet.Peer) bool {
	n, ok := p.(*proxynet.ExitNode)
	if !ok {
		return false
	}
	return n.Path == nil || (len(n.Path.TLS) == 0 && len(n.Path.StreamFor(443)) == 0 && !n.Path.PortBlocked(443))
}

// payload is deterministic pseudo-random bytes from the workload seed.
func (d *driver) payload(label string, n int) []byte {
	rng := simnet.SubRand(d.seed, "tftbench/payload/"+label)
	b := make([]byte, n)
	for i := 0; i+8 <= n; i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	return b
}

// driveTunnelThroughput pushes TunnelBytes from a bench origin through
// Peer.Tunnel to the dialer and compares SHA-256 of what was sent with what
// arrived; a mismatch reports the metric as failed (ok false), so a splice
// or ring bug cannot post a fast number.
func (d *driver) driveTunnelThroughput(nodes []nodeRef, entry *tunnelEntry) (mbps float64, ok bool, err error) {
	src := d.payload("tunnel", d.cfg.TunnelBytes)
	want := sha256.Sum256(src)
	// Server talks after one request byte, as an HTTPS origin does after
	// the ClientHello; it needs its own goroutine like they do.
	d.w.Fabric.HandleTCPStream(payloadIP, 443, func(c net.Conn) {
		defer c.Close()
		var req [1]byte
		if _, err := io.ReadFull(c, req[:]); err == nil {
			c.Write(src)
		}
	})
	ins := d.sample(nodes, "p", 4*d.cfg.TunnelReps, nil)
	peers, err := d.peers(ins)
	if err != nil {
		return 0, false, err
	}
	dst := make([]byte, len(src))
	var rates []float64
	ok = true
	d.drive("exit.tunnel_mb_s", func(int) {
		for i := 0; i < len(peers) && len(rates) < d.cfg.TunnelReps; i++ {
			if !plainPath(peers[i]) {
				continue
			}
			conn, err := entry.open(d, peers[i], payloadIP)
			if err != nil {
				ok = false
				return
			}
			clear(dst)
			t0 := time.Now()
			_, werr := conn.Write([]byte{1})
			_, rerr := io.ReadFull(conn, dst)
			el := time.Since(t0)
			conn.Close()
			if werr != nil || rerr != nil || sha256.Sum256(dst) != want {
				ok = false
				return
			}
			rates = append(rates, float64(len(src))/1e6/el.Seconds())
		}
	})
	if len(rates) == 0 {
		return 0, false, nil
	}
	return median(rates), ok, nil
}

// ---- simnet ---------------------------------------------------------------

// driveDial times Fabric.Dial + 1-byte echo + close on the world's fabric
// (its host table is the crawl's size). faults selects the plane armed for
// the drive: nil for the clean path whatever the workload.
func (d *driver) driveDial(name string, faults *simnet.FaultPlane) timing {
	d.w.Fabric.HandleTCP(echoIP, 7, func(c net.Conn) {
		defer c.Close()
		var b [1]byte
		if _, err := io.ReadFull(c, b[:]); err == nil {
			c.Write(b[:])
		}
	})
	saved := d.w.Fabric.Faults
	d.w.Fabric.Faults = faults
	defer func() { d.w.Fabric.Faults = saved }()
	one := []byte{1}
	var buf [1]byte
	var t timing
	d.drive(name, func(int) {
		t = loop{n: d.cfg.K, call: func(int) bool {
			conn, err := d.w.Fabric.Dial(d.ctx, population.ClientIP, echoIP, 7)
			if err != nil {
				return false
			}
			_, werr := conn.Write(one)
			_, rerr := io.ReadFull(conn, buf[:])
			conn.Close()
			return werr == nil && rerr == nil && buf[0] == 1
		}}.run()
	})
	return t
}

// driveExchangeDNS times Fabric.ExchangeDNS against a responder that does
// no work, so the number is the fabric's own.
func (d *driver) driveExchangeDNS() timing {
	q, _ := dnswire.NewQuery(7, d.exp.classes[0].host("x000001"), dnswire.TypeA).Marshal()
	d.w.Fabric.HandleDNS(cannedDNS, func(netip.Addr, []byte) []byte { return q })
	var t timing
	d.drive("simnet.exchange_dns", func(int) {
		t = loop{n: d.cfg.K, call: func(int) bool {
			resp, err := d.w.Fabric.ExchangeDNS(population.ClientIP, cannedDNS, q)
			return err == nil && len(resp) == len(q)
		}}.run()
	})
	return t
}

// pipeThroughput streams 8 MB rounds through one simnet.Pipe in block-sized
// writes for at least d.cfg.PipeFor of timed transfer. The receiver's
// SHA-256 of every round must equal the sender's; the destination is cleared
// between rounds so bytes that never crossed the ring cannot pass. Hashing
// and clearing are outside the timed region.
func (d *driver) pipeThroughput(block int) (mbps float64, ok bool) {
	const round = 8 << 20
	src := d.payload("pipe", round)
	want := sha256.Sum256(src)
	dst := make([]byte, round)
	a, b := simnet.Pipe(0)
	defer a.Close()
	defer b.Close()
	var timed time.Duration
	var total int
	for timed < d.cfg.PipeFor {
		clear(dst)
		werr := make(chan error, 1)
		t0 := time.Now()
		go func() {
			for off := 0; off < round; off += block {
				if _, err := a.Write(src[off:min(off+block, round)]); err != nil {
					werr <- err
					return
				}
			}
			werr <- nil
		}()
		_, rerr := io.ReadFull(b, dst)
		err := <-werr
		timed += time.Since(t0)
		total += round
		if rerr != nil || err != nil || sha256.Sum256(dst) != want {
			return 0, false
		}
	}
	return float64(total) / 1e6 / timed.Seconds(), true
}

// driveTimers schedules Timers callbacks across one simulated day on a
// fresh virtual clock and runs them: ns per timer, scheduling and firing.
func (d *driver) driveTimers() float64 {
	rng := simnet.SubRand(d.seed, "tftbench/timers")
	delays := make([]time.Duration, d.cfg.Timers)
	for i := range delays {
		delays[i] = time.Duration(rng.IntN(24*3600)) * time.Second
	}
	fired := 0
	fn := func() { fired++ }
	var ns float64
	d.drive("simnet.timer", func(int) {
		v := simnet.NewVirtual(population.Epoch)
		t0 := time.Now()
		for _, dl := range delays {
			v.AfterFunc(dl, fn)
		}
		v.Run()
		ns = float64(time.Since(t0)) / float64(len(delays))
	})
	if fired != len(delays) {
		return 0
	}
	return ns
}

// ---- codecs ---------------------------------------------------------------

type codecStats struct {
	marshalNs, unmarshalNs, allocs float64
}

// driveDNSWire marshals and unmarshals the workload's own query names and
// the replies the authority gives for them.
func (d *driver) driveDNSWire() codecStats {
	n := d.cfg.K
	msgs := make([]*dnswire.Message, n)
	wire := make([][]byte, n)
	for i := range msgs {
		c := d.exp.classes[i%len(d.exp.classes)]
		q := dnswire.NewQuery(uint16(i), c.host(fmt.Sprintf("w%06d", i)), dnswire.TypeA)
		if i%2 == 1 {
			r := q.Reply()
			r.Answers = append(r.Answers, dnswire.Record{Name: q.Questions[0].Name,
				Type: dnswire.TypeA, Class: q.Questions[0].Class, TTL: 60, A: population.WebIP})
			q = r
		}
		msgs[i] = q
		wire[i], _ = q.Marshal()
	}
	var st codecStats
	d.drive("dnswire", func(int) {
		var ma, ua float64
		st.marshalNs, ma = meanNs(d.cfg.CodecRounds, n, func(i int) { msgs[i].Marshal() })
		st.unmarshalNs, ua = meanNs(d.cfg.CodecRounds, n, func(i int) { dnswire.Unmarshal(wire[i]) })
		st.allocs = ma + ua
	})
	return st
}

type httpStats struct {
	writeNs, readNs, readAllocs, mbps float64
	// byClass is write+read ns at each class's body size.
	byClass []float64
}

// driveHTTPWire writes and reads responses at the workload's real body
// sizes: tiny for the DNS and monitor crawls, the 3-258 KB objects for
// http_objects.
func (d *driver) driveHTTPWire() httpStats {
	var st httpStats
	d.drive("httpwire", func(int) {
		var wsum, rsum, asum, bytesSum float64
		for _, c := range d.exp.classes {
			resp := httpwire.NewResponse(200, c.body)
			resp.Header.Set("Content-Type", "text/html; charset=utf-8")
			var buf bytes.Buffer
			resp.Write(&buf)
			wire := buf.Bytes()
			// Fewer passes over a body a thousand times larger.
			ops := max(8, d.cfg.K*d.cfg.CodecRounds/(4+len(c.body)/1024))
			w, _ := meanNs(1, ops, func(int) {
				buf.Reset()
				resp.Write(&buf)
			})
			rd := bytes.NewReader(wire)
			br := bufio.NewReader(rd)
			r, a := meanNs(1, ops, func(int) {
				rd.Reset(wire)
				br.Reset(rd)
				httpwire.ReadResponse(br)
			})
			st.byClass = append(st.byClass, w+r)
			wsum, rsum, asum, bytesSum = wsum+w, rsum+r, asum+a, bytesSum+float64(len(c.body))
		}
		n := float64(len(d.exp.classes))
		st.writeNs, st.readNs, st.readAllocs = wsum/n, rsum/n, asum/n
		st.mbps = bytesSum / 1e6 / ((wsum + rsum) / 1e9)
	})
	return st
}

type certStats struct {
	unmarshalNs, verifyNs float64
	collect               timing
}

// benchTLSSite registers a TLS origin on a world that has no site registry,
// with a chain the world's first site CA issued, so the CONNECT-path
// metrics have a value on every workload.
func benchTLSSite(w *population.World) *population.Site {
	const host = "www.tftbench.example"
	ca := w.SiteCAs[0]
	leaf := ca.Issue(cert.Template{
		Subject:   cert.Name{CommonName: host, Organization: "Site Operator"},
		NotBefore: population.Epoch.Add(-90 * 24 * time.Hour),
		NotAfter:  population.Epoch.Add(365 * 24 * time.Hour),
		KeySeed:   "site/" + host,
	})
	s := &population.Site{Host: host, IP: benchSite, Chain: []*cert.Certificate{leaf, ca.Cert}}
	w.Fabric.HandleTCPStream(benchSite, 443, origin.TLSSite(func(string) []*cert.Certificate { return s.Chain }))
	return s
}

// driveCert times the chain codec, verification, and a direct handshake
// (Fabric.Dial + tlssim.CollectChain from the node's address) on the
// sampled site targets.
func (d *driver) driveCert(nodes []nodeRef, fallback *population.Site) (certStats, error) {
	ins := d.sample(nodes, "k", d.cfg.K, nil)
	peers, err := d.peers(ins)
	if err != nil {
		return certStats{}, err
	}
	sites := make([]*population.Site, len(ins))
	wire := make([][]byte, len(ins))
	for i, in := range ins {
		sites[i] = in.site
		if sites[i] == nil {
			sites[i] = fallback
		}
		wire[i] = cert.MarshalChain(sites[i].Chain)
	}
	at := d.w.Clock.Now()
	var st certStats
	d.drive("cert", func(int) {
		st.unmarshalNs, _ = meanNs(d.cfg.CodecRounds, len(ins), func(i int) { cert.UnmarshalChain(wire[i]) })
		st.verifyNs, _ = meanNs(d.cfg.CodecRounds, len(ins), func(i int) { d.w.Trust.Verify(sites[i].Host, sites[i].Chain, at) })
	})
	d.drive("tlssim.collect_chain", func(int) {
		st.collect = loop{n: len(ins), call: func(i int) bool {
			conn, err := d.w.Fabric.Dial(d.ctx, peers[i].PeerIP(), sites[i].IP, 443)
			if err != nil {
				return false
			}
			chain, err := tlssim.CollectChain(conn, sites[i].Host)
			conn.Close()
			return err == nil && len(chain) > 0
		}}.run()
	})
	return st, nil
}
