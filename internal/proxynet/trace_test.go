package proxynet

import (
	"context"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"github.com/tftproject/tft/internal/cert"
	"github.com/tftproject/tft/internal/dnsserver"
	"github.com/tftproject/tft/internal/origin"
	"github.com/tftproject/tft/internal/tlssim"
	"github.com/tftproject/tft/internal/trace"
)

// instrumentWorld attaches one tracer to the super proxy and every exit
// node, the way tft.Options.instrument wires a simulated world.
func instrumentWorld(w *testWorld) *trace.Tracer {
	tr := trace.New(w.clock.Now, 0)
	w.sp.Tracer = tr
	for _, n := range w.nodes {
		n.Tracer = tr
	}
	return tr
}

// waitSpans polls until n spans named name are collected: the server
// goroutine Ends its request span after writing the response, so the
// client can observe the reply before the span lands.
func waitSpans(t *testing.T, tr *trace.Tracer, name string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		count := 0
		for _, d := range tr.Spans() {
			if d.Name == name {
				count++
			}
		}
		if count >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d %q spans", n, name)
}

// Trace context must survive super-proxy retries: the dead pinned node's
// attempt appears as a closed error span under the request's server span,
// and the winning attempt's span parents the exit node's resolve and fetch
// spans — the full chain client → proxy → attempt → node shares one
// TraceID.
func TestTracePropagationAcrossRetries(t *testing.T) {
	w := newTestWorld(t, 0)
	tr := instrumentWorld(w)
	w.setRule("d1", dnsserver.Always(webIP))
	url := "http://d1." + zone + "/object.html"
	opts := Options{Country: "DE", Session: "808", RemoteDNS: true}

	// Request 1 pins the session to some node.
	_, dbg, err := w.client.Get(context.Background(), opts, url)
	if err != nil {
		t.Fatal(err)
	}
	pinned := dbg.ZID
	peer, ok := w.pool.Get(pinned)
	if !ok {
		t.Fatalf("pinned node %q not in pool", pinned)
	}
	peer.(*ExitNode).SetOnline(false)

	// Request 2 finds the pin dead, records the failed attempt, retries.
	root := tr.StartRoot("probe.retry", trace.KindClient)
	rc := root.Context() // an ended span's handle names no span
	ctx := trace.NewContext(context.Background(), rc)
	_, dbg2, err := w.client.Get(ctx, opts, url)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if len(dbg2.Attempts) == 0 || dbg2.Attempts[0].ZID != pinned {
		t.Fatalf("timeline did not report the dead pin: %+v", dbg2)
	}
	waitSpans(t, tr, "proxy.get", 2)

	tid := rc.Trace
	var get *trace.SpanData
	var attempts, resolves, fetches []trace.SpanData
	for _, d := range tr.Spans() {
		if d.TraceID != tid {
			continue
		}
		d := d
		switch d.Name {
		case "proxy.get":
			get = &d
		case "proxy.attempt":
			attempts = append(attempts, d)
		case "node.resolve":
			resolves = append(resolves, d)
		case "node.fetch":
			fetches = append(fetches, d)
		}
	}
	if get == nil {
		t.Fatalf("no proxy.get span in trace %s", tid)
	}
	if get.Parent != rc.Span {
		t.Fatalf("proxy.get parent = %v, want client root %v", get.Parent, rc.Span)
	}
	if len(attempts) < 2 {
		t.Fatalf("attempts = %d, want the dead pin plus a winner: %+v", len(attempts), attempts)
	}

	var winner *trace.SpanData
	sawDeadPin := false
	for i, a := range attempts {
		if a.Parent != get.SpanID {
			t.Fatalf("attempt %d parent = %v, want proxy.get %v", i, a.Parent, get.SpanID)
		}
		if a.End.Before(a.Start) {
			t.Fatalf("attempt %d not closed: %+v", i, a)
		}
		switch a.Err {
		case "":
			if winner != nil {
				t.Fatalf("two winning attempts: %+v and %+v", *winner, a)
			}
			a := a
			winner = &a
		case "peer_disconnected":
			if a.Str("zid") != pinned {
				t.Fatalf("error span zid = %q, want dead pin %q", a.Str("zid"), pinned)
			}
			sawDeadPin = true
		}
	}
	if !sawDeadPin {
		t.Fatalf("dead pin left no closed error span: %+v", attempts)
	}
	if winner == nil {
		t.Fatalf("no winning attempt span: %+v", attempts)
	}
	if winner.Str("zid") != dbg2.ZID {
		t.Fatalf("winner zid = %q, served by %q", winner.Str("zid"), dbg2.ZID)
	}

	if len(fetches) != 1 || fetches[0].Parent != winner.SpanID {
		t.Fatalf("node.fetch must parent under the winning attempt %v: %+v", winner.SpanID, fetches)
	}
	if fetches[0].Str("zid") != dbg2.ZID {
		t.Fatalf("fetch zid = %q, want %q", fetches[0].Str("zid"), dbg2.ZID)
	}
	if len(resolves) != 1 || resolves[0].Parent != winner.SpanID {
		t.Fatalf("node.resolve must parent under the winning attempt %v: %+v", winner.SpanID, resolves)
	}
}

// An untraced client request still yields a complete server-side trace:
// the proxy span roots a fresh trace and the node spans hang off it.
func TestTraceWithoutClientHeader(t *testing.T) {
	w := newTestWorld(t, 0)
	tr := instrumentWorld(w)
	w.setRule("d1", dnsserver.Always(webIP))
	if _, _, err := w.client.Get(context.Background(), Options{Country: "DE"},
		"http://d1."+zone+"/object.html"); err != nil {
		t.Fatal(err)
	}
	waitSpans(t, tr, "proxy.get", 1)
	var get *trace.SpanData
	for _, d := range tr.Spans() {
		d := d
		if d.Name == "proxy.get" {
			get = &d
		}
	}
	if get == nil {
		t.Fatal("no proxy.get span")
	}
	if get.Parent != 0 {
		t.Fatalf("untraced request's proxy span must root its own trace: %+v", get)
	}
	for _, d := range tr.Spans() {
		if d.TraceID != get.TraceID {
			t.Fatalf("span %q escaped the request trace: %+v", d.Name, d)
		}
	}
}

// A request outside the trace sample starts no span at any hop: not the
// super proxy's request, resolve or attempt spans, a retry's error span
// included, and not the exit node's, in process or behind an agent whose
// header carries the mark. After each case a sampled request of the same
// shape is traced whole, so the case would have shown its spans; every span
// recorded belongs to that request's trace.
func TestUnsampledRequestStartsNoSpan(t *testing.T) {
	unsampled := trace.NewContext(context.Background(), trace.Unsampled)
	// sampledOnly runs do under a client root and requires that the tracer
	// holds nothing but that root's trace once name's span has landed.
	sampledOnly := func(t *testing.T, tr *trace.Tracer, name string, do func(context.Context)) {
		t.Helper()
		if n := tr.Total(); n != 0 {
			t.Fatalf("unsampled requests recorded %d spans", n)
		}
		root := tr.StartRoot("probe.sampled", trace.KindClient)
		rc := root.Context()
		do(trace.NewContext(context.Background(), rc))
		root.End()
		waitSpans(t, tr, name, 1)
		for _, d := range tr.Spans() {
			if d.TraceID != rc.Trace {
				t.Fatalf("span %q of trace %v recorded for an unsampled request", d.Name, d.TraceID)
			}
		}
	}

	t.Run("get with retry", func(t *testing.T) {
		w := newTestWorld(t, 0)
		tr := instrumentWorld(w)
		w.setRule("d1", dnsserver.Always(webIP))
		url := "http://d1." + zone + "/object.html"
		opts := Options{Country: "DE", Session: "808", RemoteDNS: true}
		_, dbg, err := w.client.Get(unsampled, opts, url)
		if err != nil {
			t.Fatal(err)
		}
		peer, _ := w.pool.Get(dbg.ZID)
		peer.(*ExitNode).SetOnline(false)
		_, dbg2, err := w.client.Get(unsampled, opts, url)
		if err != nil {
			t.Fatal(err)
		}
		if len(dbg2.Attempts) == 0 || dbg2.Attempts[0].ZID != dbg.ZID {
			t.Fatalf("the dead pin was not retried: %+v", dbg2)
		}
		sampledOnly(t, tr, "node.fetch", func(ctx context.Context) {
			if _, _, err := w.client.Get(ctx, opts, url); err != nil {
				t.Fatal(err)
			}
		})
	})

	t.Run("connect", func(t *testing.T) {
		w := newTestWorld(t, 0)
		tr := instrumentWorld(w)
		root := cert.NewRootCA(cert.Name{CommonName: "Site Root"}, "sr", t0.Add(-time.Hour), 1000*time.Hour)
		leaf := root.Issue(cert.Template{Subject: cert.Name{CommonName: "site.example"},
			NotBefore: t0.Add(-time.Hour), NotAfter: t0.Add(1000 * time.Hour), KeySeed: "site"})
		chain := []*cert.Certificate{leaf, root.Cert}
		w.fabric.HandleTCP(siteIP, 443, origin.TLSSite(func(string) []*cert.Certificate { return chain }))
		connect := func(ctx context.Context) {
			conn, _, err := w.client.Connect(ctx, Options{}, siteIP.String()+":443")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tlssim.CollectChain(conn, "site.example"); err != nil {
				t.Fatal(err)
			}
			conn.Close()
		}
		connect(unsampled)
		sampledOnly(t, tr, "node.tunnel", connect)
	})

	t.Run("get through an agent", func(t *testing.T) {
		r := newTCPRig(t, netip.Addr{}, nil)
		tr := trace.New(nil, 0)
		r.sp.Tracer = tr
		r.auth.SetFallback(answering("d1."+zone, dnsserver.Always(r.webIPReal)))
		dnsAP, _ := netip.ParseAddrPort(r.dnsAddr)
		node := &ExitNode{
			ZID: "zremote09", Addr: localIP(), Country: "DE", Tracer: tr,
			Resolver: dnsserver.NewUDPResolver(localIP(), dnsAP, netip.Addr{}),
			Net:      &TCPDialer{Timeout: 2 * time.Second},
		}
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		go (&Agent{Node: node, Gateway: r.agentAddr, Conns: 2}).Run(ctx)
		r.waitPeers("zremote09")
		url := fmt.Sprintf("http://d1.%s:%d/", zone, r.webPort)
		get := func(ctx context.Context) {
			if _, dbg, err := r.client().Get(ctx, Options{RemoteDNS: true}, url); err != nil || dbg.ZID != "zremote09" {
				t.Fatalf("served by %q: %v", dbg.ZID, err)
			}
		}
		get(unsampled)
		sampledOnly(t, tr, "node.fetch", get)
	})
}
