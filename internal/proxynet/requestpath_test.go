package proxynet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"github.com/tftproject/tft/internal/content"
	"github.com/tftproject/tft/internal/dnsserver"
	"github.com/tftproject/tft/internal/httpwire"
	"github.com/tftproject/tft/internal/simnet"
	"github.com/tftproject/tft/internal/trace"
)

// countingDialer counts the connections a client opens.
type countingDialer struct {
	Dialer
	dials int
}

func (d *countingDialer) Dial(ctx context.Context, src, dst netip.Addr, port uint16) (net.Conn, error) {
	d.dials++
	return d.Dialer.Dial(ctx, src, dst, port)
}

// TestGetRejectsMalformedURLBeforeDialing: a URL the proxy would refuse is
// refused by the client, which opens no connection for it. A connection the
// service accepts and the client drops is more than waste: under chaos the
// fault schedule is a function of dial order.
func TestGetRejectsMalformedURLBeforeDialing(t *testing.T) {
	w := newTestWorld(t, 0)
	w.setRule("d1", dnsserver.Always(webIP))
	dialer := &countingDialer{Dialer: w.fabric}
	w.client.Net = dialer
	for _, url := range []string{"https://d1." + zone + "/", "d1." + zone, "http:///nohost", ""} {
		resp, dbg, err := w.client.Get(context.Background(), Options{}, url)
		if !errors.Is(err, httpwire.ErrMalformed) || resp != nil || dbg != nil {
			t.Errorf("Get(%q) = %v, %v, %v; want ErrMalformed alone", url, resp, dbg, err)
		}
	}
	if dialer.dials != 0 {
		t.Fatalf("malformed URLs cost %d dials, want none", dialer.dials)
	}
	if _, _, err := w.client.Get(context.Background(), Options{}, "http://d1."+zone+"/"); err != nil || dialer.dials != 1 {
		t.Fatalf("a good URL: err %v, %d dials; want one dial", err, dialer.dials)
	}
}

// requestRig is the test world set up the way a crawl runs it: a tracer on
// the super proxy and every exit node, a context carrying the probe's root
// span, and a family of d1-<n> names that resolve for everyone, taken in
// turn because a crawl's hostnames are unique to their sessions. The
// tracer's ring is a small one, wrapped by the rig's thirteenth request as a
// crawl's is by its two-thousandth session: the state a crawl runs in.
func requestRig(tb testing.TB) (*testWorld, context.Context) {
	w := newTestWorld(tb, 0)
	d1 := dnsserver.Always(webIP)
	w.auth.SetFallback(func(string) dnsserver.Rule { return d1 })
	tr := trace.New(w.clock.Now, 64)
	w.sp.Tracer = tr
	for _, n := range w.nodes {
		n.Tracer = tr
	}
	w.urls = make([]string, 256)
	for i := range w.urls {
		w.urls[i] = fmt.Sprintf("http://d1-%04d.%s/", i, zone)
	}
	root := tr.StartRoot("probe.test", trace.KindClient)
	tb.Cleanup(root.End)
	return w, trace.NewContext(context.Background(), root.Context())
}

// proxiedGet is one §4.1-shaped request: remote DNS, a pinned session, the
// small probe page of the rig's next hostname.
func (w *testWorld) proxiedGet(tb testing.TB, ctx context.Context) {
	url := w.urls[w.nextURL%len(w.urls)]
	w.nextURL++
	resp, dbg, err := w.client.Get(ctx, Options{Country: "DE", Session: "7", RemoteDNS: true}, url)
	if err != nil || resp.StatusCode != 200 || dbg.ZID == "" {
		tb.Fatalf("proxied GET: %v %+v %+v", err, resp, dbg)
	}
	// As the experiments do once a probe's names can no longer be asked
	// about: the logs hold one session's entries, not the run's.
	host := url[len("http://") : len(url)-1]
	w.auth.Forget(host)
	w.web.Forget(host)
}

// TestProxiedGetAllocs holds one warmed proxied GET — client, super proxy,
// its resolver, the exit node's resolver and fetch, the origin — to an
// allocation ceiling, outside the trace sample as a crawl's 511 sessions in
// 512 are, and sampled, where the five spans it leaves are an allocation
// each. They measured 19 and 26 when the ceilings were set; the slack is
// for Go releases, not for regressions of ours.
func TestProxiedGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	for _, c := range []struct {
		name    string
		sampled bool
		ceiling float64
	}{{"unsampled", false, 22}, {"sampled", true, 29}} {
		t.Run(c.name, func(t *testing.T) {
			w, ctx := requestRig(t)
			if !c.sampled {
				ctx = trace.NewContext(context.Background(), trace.Unsampled)
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			for i := 0; i < 16; i++ { // settles the session pin and the pools, and wraps the tracer's ring
				w.proxiedGet(t, ctx)
			}
			got := testing.AllocsPerRun(100, func() { w.proxiedGet(t, ctx) })
			if got > c.ceiling {
				t.Fatalf("a proxied GET allocates %.0f times, ceiling %.0f", got, c.ceiling)
			}
			t.Logf("%.0f allocations a proxied GET", got)
		})
	}
}

// TestProxyAuthAllocs: the credentials cross the wire at two allocations:
// the header value at the client and the decoded user name at the super
// proxy. A country geo.Countries lists comes back as the table's own string
// (three allocations while it was upper-cased anew).
func TestProxyAuthAllocs(t *testing.T) {
	c := &Client{User: "lum-customer-tft", Password: "tft-secret"}
	o := Options{Country: "DE", Session: "s0000429", RemoteDNS: true}
	want := Params{User: c.User, Country: o.Country, Session: o.Session, RemoteDNS: true}
	if got := testing.AllocsPerRun(200, func() {
		if p, ok := parseProxyAuth(c.proxyAuth(o)); !ok || p != want {
			t.Fatalf("round trip = %+v, %v; want %+v", p, ok, want)
		}
	}); got > 2 {
		t.Fatalf("proxyAuth -> parseProxyAuth allocates %.0f times, ceiling 2", got)
	}
}

func BenchmarkProxiedGET(b *testing.B) {
	w, ctx := requestRig(b)
	w.proxiedGet(b, ctx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.proxiedGet(b, ctx)
	}
}

// proxiedObject GETs the §5.1 JavaScript object under the rig's next
// hostname, as a crawl's HTTP probe does, and checks the bytes.
func (w *testWorld) proxiedObject(tb testing.TB, ctx context.Context) *httpwire.Response {
	url := w.urls[w.nextURL%len(w.urls)] + content.KindJS.Path()[1:]
	w.nextURL++
	resp, dbg, err := w.client.Get(ctx, Options{Country: "DE", Session: "7"}, url)
	if err != nil || resp.StatusCode != 200 || dbg.ZID == "" || len(resp.Body) != len(content.Object(content.KindJS)) {
		tb.Fatalf("proxied GET of the object: %v %+v %+v", err, resp, dbg)
	}
	host := url[len("http://"):strings.LastIndexByte(url, '/')]
	w.auth.Forget(host)
	w.web.Forget(host)
	return resp
}

// corruptingDialer arms a corrupt fault on every stream it dials: the
// client's leg to the super proxy, when the client dials through it.
type corruptingDialer struct{ Dialer }

func (d corruptingDialer) Dial(ctx context.Context, src, dst netip.Addr, port uint16) (net.Conn, error) {
	conn, err := d.Dialer.Dial(ctx, src, dst, port)
	if s, ok := conn.(*simnet.Stream); ok {
		s.InjectCorrupt(1 << 12)
	}
	return conn, err
}

// TestProxiedObjectIsShared: on fault-free streams the 258 KB object
// crosses origin → exit node → super proxy → client by reference, so the
// client's body is content.Object's own slice. A fault on the client's leg
// makes that hop copy: the client's body is then a private buffer carrying
// the corruption, and the object itself is untouched.
func TestProxiedObjectIsShared(t *testing.T) {
	w, ctx := requestRig(t)
	obj := content.Object(content.KindJS)
	want := sha256.Sum256(obj)
	resp := w.proxiedObject(t, ctx)
	if &resp.Body[0] != &obj[0] {
		t.Fatal("the client's body is a copy of the object, not the object")
	}
	resp.Release() // does nothing for a shared body

	w.client.Net = corruptingDialer{w.fabric}
	resp = w.proxiedObject(t, ctx)
	if &resp.Body[0] == &obj[0] || bytes.Equal(resp.Body, obj) {
		t.Fatal("the corrupted hop handed the client the object itself, or an uncorrupted copy")
	}
	resp.Release()
	if sha256.Sum256(obj) != want {
		t.Fatal("the fault wrote into the canonical object")
	}
}

// BenchmarkProxiedObject is one proxied GET of the 258 KB JavaScript
// object end to end: the §5.1 probe's largest fetch.
func BenchmarkProxiedObject(b *testing.B) {
	w, ctx := requestRig(b)
	w.proxiedObject(b, ctx).Release()
	b.ReportAllocs()
	b.SetBytes(int64(len(content.Object(content.KindJS))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.proxiedObject(b, ctx).Release()
	}
}

func BenchmarkProxiedCONNECT(b *testing.B) {
	w, _ := tunnelWorld(b)
	tr := trace.New(w.clock.Now, 0)
	w.sp.Tracer = tr
	for _, n := range w.nodes {
		n.Tracer = tr
	}
	root := tr.StartRoot("probe.bench", trace.KindClient)
	defer root.End()
	ctx := trace.NewContext(context.Background(), root.Context())
	connect := func() {
		conn, dbg, err := w.client.Connect(ctx, Options{Country: "DE", Session: "7"}, siteIP.String()+":443")
		if err != nil || dbg.ZID == "" {
			b.Fatalf("CONNECT: %v %+v", err, dbg)
		}
		conn.Close()
	}
	connect()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		connect()
	}
}
