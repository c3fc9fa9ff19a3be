package proxynet

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"github.com/tftproject/tft/internal/cert"
	"github.com/tftproject/tft/internal/content"
	"github.com/tftproject/tft/internal/dnsserver"
	"github.com/tftproject/tft/internal/dnswire"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/metrics"
	"github.com/tftproject/tft/internal/middlebox"
	"github.com/tftproject/tft/internal/origin"
	"github.com/tftproject/tft/internal/simnet"
	"github.com/tftproject/tft/internal/tlssim"
)

var (
	t0        = time.Date(2016, 4, 13, 0, 0, 0, 0, time.UTC)
	clientIP  = netip.MustParseAddr("203.0.113.1")
	proxyIP   = netip.MustParseAddr("203.0.113.22")
	webIP     = netip.MustParseAddr("198.51.100.10")
	authIP    = netip.MustParseAddr("198.51.100.53")
	landingIP = netip.MustParseAddr("198.51.100.99")
	siteIP    = netip.MustParseAddr("198.51.100.44")
	ispDNSIP  = netip.MustParseAddr("91.5.0.53")
)

const zone = "probe.tft-example.net"

// testWorld is a miniature end-to-end rig: fabric, clock, authority, web
// server, a handful of exit nodes, a super proxy, and a client.
type testWorld struct {
	fabric *simnet.Fabric
	clock  *simnet.Virtual
	auth   *dnsserver.Authority
	web    *origin.Server
	pool   *Pool
	sp     *SuperProxy
	client *Client
	nodes  []*ExitNode // the exit nodes newTestWorld put in pool, in order

	// requestRig's hostnames, and which proxiedGet takes next.
	urls    []string
	nextURL int
}

func newTestWorld(t testing.TB, churn float64) *testWorld {
	t.Helper()
	w := &testWorld{
		fabric: simnet.NewFabric(),
		clock:  simnet.NewVirtual(t0),
	}
	// Production worlds inject the virtual clock into the fabric (see
	// population.Build), so stream deadlines live on virtual time; the
	// super proxy's response write deadlines depend on that agreement.
	w.fabric.Clock = w.clock
	w.auth = dnsserver.NewAuthority(zone, w.clock)
	w.fabric.HandleDNS(authIP, w.auth.Handler())
	w.web = origin.NewServer(w.clock)
	w.web.AllowSkew = true
	w.fabric.HandleTCP(webIP, 80, w.web.ConnHandler())
	w.fabric.HandleTCP(landingIP, 80, origin.StaticPage(
		middlebox.LandingSpec{Operator: "TestISP", RedirectURL: "http://search.testisp.example/q"}.Render(),
		"text/html"))

	upstream := func(name string) (netip.Addr, bool) { return authIP, true }
	google := dnsserver.NewGoogleResolver(w.fabric, upstream)
	// The super proxy resolves via Google from its pinned egress instance.
	spResolver := &dnsserver.Resolver{
		Addr: geo.GoogleDNSAddr, Net: w.fabric, Upstream: upstream,
		EgressFor: func(netip.Addr) netip.Addr { return geo.SuperProxyResolverEgress },
	}

	w.pool = NewPool(simnet.NewRand(11), churn)
	for i := 0; i < 8; i++ {
		node := &ExitNode{
			ZID:     fmt.Sprintf("z%07d", i),
			Addr:    netip.AddrFrom4([4]byte{91, 5, 1, byte(10 + i)}),
			ASN:     64500,
			Country: "DE",
			Net:     w.fabric,
		}
		if i%2 == 0 {
			node.Resolver = dnsserver.NewResolver(ispDNSIP, w.fabric, upstream)
		} else {
			node.Resolver = google
		}
		if err := w.pool.Add(node); err != nil {
			t.Fatal(err)
		}
		w.nodes = append(w.nodes, node)
	}
	w.sp = NewSuperProxy(proxyIP, w.pool, spResolver, w.clock)
	w.fabric.HandleTCP(proxyIP, ProxyPort, w.sp.ConnHandler())
	w.client = &Client{Net: w.fabric, Src: clientIP, Proxy: proxyIP, User: "lum-customer-tft", Password: "secret"}
	return w
}

// setRule makes the authority answer name (a label under zone) with r, and
// every other name NXDOMAIN.
func (w *testWorld) setRule(name string, r dnsserver.Rule) {
	w.auth.SetFallback(answering(name+"."+zone, r))
}

// answering is an authority policy that answers name with r and every other
// name NXDOMAIN; r is built once, by the caller, not per query.
func answering(name string, r dnsserver.Rule) func(string) dnsserver.Rule {
	name = dnswire.CanonicalName(name)
	return func(q string) dnsserver.Rule {
		if q == name {
			return r
		}
		return nil
	}
}

func TestUsernameRoundTrip(t *testing.T) {
	p := Params{User: "lum-customer-tft", Country: "DE", Session: "429", RemoteDNS: true}
	got := ParseUsername(p.Username())
	if got != p {
		t.Fatalf("round trip = %+v, want %+v", got, p)
	}
	// Plain user with no parameters.
	got = ParseUsername("lum-customer-tft")
	if got.User != "lum-customer-tft" || got.Country != "" || got.Session != "" || got.RemoteDNS {
		t.Fatalf("plain user = %+v", got)
	}
}

func TestProxiedGet(t *testing.T) {
	w := newTestWorld(t, 0)
	w.setRule("d1", dnsserver.Always(webIP))
	resp, dbg, err := w.client.Get(context.Background(), Options{Country: "DE"},
		"http://d1."+zone+"/object.html")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || !bytes.Equal(resp.Body, content.Object(content.KindHTML)) {
		t.Fatalf("status %d, body %d bytes", resp.StatusCode, len(resp.Body))
	}
	if dbg.ZID == "" || !dbg.NodeIP.IsValid() {
		t.Fatalf("debug = %+v", dbg)
	}
	// The origin saw the exit node's IP, not the client's.
	reqs := w.web.RequestsFor("d1." + zone)
	if len(reqs) != 1 || reqs[0].Src != dbg.NodeIP {
		t.Fatalf("origin saw %+v, debug says node %v", reqs, dbg.NodeIP)
	}
	if reqs[0].Src == clientIP {
		t.Fatal("origin saw the measurement client directly")
	}
}

func TestSuperProxyGateBlocksUnknownDomain(t *testing.T) {
	w := newTestWorld(t, 0)
	// No rule for d2: the super proxy's resolver gets NXDOMAIN, so the
	// request must never be forwarded.
	resp, dbg, err := w.client.Get(context.Background(), Options{}, "http://d2."+zone+"/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 502 || dbg.Err != ErrDNSSuper {
		t.Fatalf("resp = %d, dbg = %+v", resp.StatusCode, dbg)
	}
	if w.web.RequestCount() != 0 {
		t.Fatal("request reached the web server despite super proxy NXDOMAIN")
	}
}

// TestSuperProxyCountsEveryFailedExistenceCheck: a GET and a CONNECT to a
// name the super proxy cannot resolve both fail with ErrDNSSuper, and both
// count in proxy_dns_super_fail_total — the existence check is one step
// whichever method asks.
func TestSuperProxyCountsEveryFailedExistenceCheck(t *testing.T) {
	w := newTestWorld(t, 0)
	reg := metrics.NewRegistry()
	w.sp.Metrics = reg
	failures := reg.Counter("proxy_dns_super_fail_total")

	resp, dbg, err := w.client.Get(context.Background(), Options{}, "http://nx-get."+zone+"/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 502 || dbg.Err != ErrDNSSuper {
		t.Fatalf("GET: resp = %d, dbg = %+v", resp.StatusCode, dbg)
	}
	if got := failures.Value(); got != 1 {
		t.Fatalf("after the GET the counter reads %d, want 1", got)
	}

	conn, dbg, err := w.client.Connect(context.Background(), Options{}, "nx-connect."+zone+":443")
	if err == nil {
		conn.Close()
		t.Fatal("CONNECT to an unresolvable name succeeded")
	}
	if dbg == nil || dbg.Err != ErrDNSSuper {
		t.Fatalf("CONNECT: err = %v, dbg = %+v", err, dbg)
	}
	if got := failures.Value(); got != 2 {
		t.Fatalf("after the CONNECT the counter reads %d, want 2", got)
	}
}

func TestD2GateWithRemoteDNS(t *testing.T) {
	w := newTestWorld(t, 0)
	// The d2 rule: answer only the super proxy's resolver egress.
	w.setRule("d2", dnsserver.OnlyFrom(webIP, func(src netip.Addr) bool {
		return src == geo.SuperProxyResolverEgress
	}))
	resp, dbg, err := w.client.Get(context.Background(), Options{RemoteDNS: true}, "http://d2."+zone+"/")
	if err != nil {
		t.Fatal(err)
	}
	// The super proxy forwarded (its resolver was answered), the node's
	// resolver honestly got NXDOMAIN, and the error surfaces in the log.
	if resp.StatusCode != 502 || !dbg.PeerNXDomain() {
		t.Fatalf("resp = %d, dbg = %+v", resp.StatusCode, dbg)
	}
	if dbg.ZID == "" {
		t.Fatal("peer NXDOMAIN without zID attribution")
	}
}

func TestHijackedNodeReturnsLandingContent(t *testing.T) {
	w := newTestWorld(t, 0)
	w.setRule("d2", dnsserver.OnlyFrom(webIP, func(src netip.Addr) bool {
		return src == geo.SuperProxyResolverEgress
	}))
	// Hijack every node's resolver.
	for _, n := range w.nodes {
		n.Resolver = &dnsserver.Resolver{
			Addr: ispDNSIP, Net: w.fabric,
			Upstream:  func(string) (netip.Addr, bool) { return authIP, true },
			NXLanding: landingIP,
		}
	}
	resp, dbg, err := w.client.Get(context.Background(), Options{RemoteDNS: true}, "http://d2."+zone+"/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || dbg.Err != "" {
		t.Fatalf("hijacked fetch: %d %q", resp.StatusCode, dbg.Err)
	}
	doms := content.ExtractDomains(resp.Body)
	if len(doms) != 1 || doms[0] != "search.testisp.example" {
		t.Fatalf("landing domains = %v", doms)
	}
}

func TestSessionPinning(t *testing.T) {
	w := newTestWorld(t, 0)
	w.setRule("d1", dnsserver.Always(webIP))
	opts := Options{Session: "429"}
	_, dbg1, err := w.client.Get(context.Background(), opts, "http://d1."+zone+"/")
	if err != nil {
		t.Fatal(err)
	}
	w.clock.Advance(10 * time.Second)
	_, dbg2, err := w.client.Get(context.Background(), opts, "http://d1."+zone+"/")
	if err != nil {
		t.Fatal(err)
	}
	if dbg1.ZID != dbg2.ZID {
		t.Fatalf("session not pinned: %s then %s", dbg1.ZID, dbg2.ZID)
	}
}

func TestSessionExpiresAfterTTL(t *testing.T) {
	w := newTestWorld(t, 0)
	w.setRule("d1", dnsserver.Always(webIP))
	opts := Options{Session: "700"}
	zids := make(map[string]bool)
	for i := 0; i < 12; i++ {
		_, dbg, err := w.client.Get(context.Background(), opts, "http://d1."+zone+"/")
		if err != nil {
			t.Fatal(err)
		}
		zids[dbg.ZID] = true
		w.clock.Advance(2 * SessionTTL)
	}
	if len(zids) < 2 {
		t.Fatal("expired sessions kept returning the same node")
	}
}

func TestDifferentSessionsDifferentNodes(t *testing.T) {
	w := newTestWorld(t, 0)
	w.setRule("d1", dnsserver.Always(webIP))
	zids := make(map[string]bool)
	for i := 0; i < 16; i++ {
		_, dbg, err := w.client.Get(context.Background(),
			Options{Session: fmt.Sprintf("s%d", i)}, "http://d1."+zone+"/")
		if err != nil {
			t.Fatal(err)
		}
		zids[dbg.ZID] = true
	}
	if len(zids) < 2 {
		t.Fatal("fresh sessions never rotated exit nodes")
	}
}

func TestPinnedNodeGoneRetriesAndReports(t *testing.T) {
	w := newTestWorld(t, 0)
	w.setRule("d1", dnsserver.Always(webIP))
	opts := Options{Session: "808"}
	_, dbg1, err := w.client.Get(context.Background(), opts, "http://d1."+zone+"/")
	if err != nil {
		t.Fatal(err)
	}
	peer, _ := w.pool.Get(dbg1.ZID)
	peer.(*ExitNode).SetOnline(false)
	_, dbg2, err := w.client.Get(context.Background(), opts, "http://d1."+zone+"/")
	if err != nil {
		t.Fatal(err)
	}
	if dbg2.ZID == dbg1.ZID {
		t.Fatal("offline pinned node served the request")
	}
	if len(dbg2.Attempts) == 0 || dbg2.Attempts[0].ZID != dbg1.ZID {
		t.Fatalf("retry chain missing the dead pin: %+v", dbg2.Attempts)
	}
}

func TestChurnProducesRetryChains(t *testing.T) {
	w := newTestWorld(t, 0.6)
	w.setRule("d1", dnsserver.Always(webIP))
	sawRetry := false
	for i := 0; i < 30 && !sawRetry; i++ {
		_, dbg, err := w.client.Get(context.Background(), Options{}, "http://d1."+zone+"/")
		if err != nil {
			t.Fatal(err)
		}
		if dbg.Err != "" {
			continue
		}
		if len(dbg.Attempts) > 0 {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Fatal("60% churn never produced a visible retry chain")
	}
}

func TestCountrySelection(t *testing.T) {
	w := newTestWorld(t, 0)
	w.setRule("d1", dnsserver.Always(webIP))
	// Add a Brazilian node.
	br := &ExitNode{
		ZID: "zbrazil1", Addr: netip.MustParseAddr("177.10.1.2"), ASN: 64600, Country: "BR",
		Resolver: dnsserver.NewResolver(ispDNSIP, w.fabric, func(string) (netip.Addr, bool) { return authIP, true }),
		Net:      w.fabric,
	}
	if err := w.pool.Add(br); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		_, dbg, err := w.client.Get(context.Background(), Options{Country: "BR"}, "http://d1."+zone+"/")
		if err != nil {
			t.Fatal(err)
		}
		if dbg.ZID != "zbrazil1" {
			t.Fatalf("country-pinned request served by %s", dbg.ZID)
		}
	}
	// A country with no nodes fails after retries.
	resp, dbg, err := w.client.Get(context.Background(), Options{Country: "JP"}, "http://d1."+zone+"/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 502 || dbg.Err != ErrNoPeers {
		t.Fatalf("resp = %d %q", resp.StatusCode, dbg.Err)
	}
}

func TestConnectTunnelCollectsCertificates(t *testing.T) {
	w := newTestWorld(t, 0)
	root := cert.NewRootCA(cert.Name{CommonName: "Site Root"}, "sr", t0.Add(-time.Hour), 1000*time.Hour)
	leaf := root.Issue(cert.Template{Subject: cert.Name{CommonName: "site.example"},
		NotBefore: t0.Add(-time.Hour), NotAfter: t0.Add(1000 * time.Hour), KeySeed: "site"})
	chain := []*cert.Certificate{leaf, root.Cert}
	w.fabric.HandleTCP(siteIP, 443, origin.TLSSite(func(sni string) []*cert.Certificate { return chain }))

	conn, dbg, err := w.client.Connect(context.Background(), Options{}, siteIP.String()+":443")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if dbg.ZID == "" {
		t.Fatal("CONNECT without zID")
	}
	got, err := tlssim.CollectChain(conn, "site.example")
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Fingerprint() != leaf.Fingerprint() {
		t.Fatal("tunnel corrupted the chain")
	}
}

func TestConnectTunnelMITM(t *testing.T) {
	w := newTestWorld(t, 0)
	root := cert.NewRootCA(cert.Name{CommonName: "Site Root"}, "sr", t0.Add(-time.Hour), 1000*time.Hour)
	leaf := root.Issue(cert.Template{Subject: cert.Name{CommonName: "site.example"},
		NotBefore: t0.Add(-time.Hour), NotAfter: t0.Add(1000 * time.Hour), KeySeed: "site"})
	chain := []*cert.Certificate{leaf, root.Cert}
	w.fabric.HandleTCP(siteIP, 443, origin.TLSSite(func(sni string) []*cert.Certificate { return chain }))

	store := cert.NewStore(root.Cert)
	spec := middlebox.ProductSpec{Product: "Avast", IssuerCN: "Avast Web/Mail Shield Root",
		Kind: "Anti-Virus/Security", Invalid: middlebox.InvalidDistinctIssuer}
	pcs := spec.Build(t0, store)
	for _, n := range w.nodes {
		n.Path = &middlebox.Path{TLS: []*middlebox.CertMITM{
			pcs.Instance(n.ZID, func() time.Time { return t0 }),
		}}
	}
	conn, _, err := w.client.Connect(context.Background(), Options{}, siteIP.String()+":443")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got, err := tlssim.CollectChain(conn, "site.example")
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Issuer.CommonName != "Avast Web/Mail Shield Root" {
		t.Fatalf("issuer = %q", got[0].Issuer.CommonName)
	}
}

func TestConnectPortRestriction(t *testing.T) {
	w := newTestWorld(t, 0)
	_, dbg, err := w.client.Connect(context.Background(), Options{}, siteIP.String()+":80")
	if err == nil {
		t.Fatal("CONNECT to port 80 succeeded")
	}
	if dbg == nil || dbg.Err == "" {
		t.Fatalf("dbg = %+v", dbg)
	}
}

func TestGetPortRestriction(t *testing.T) {
	w := newTestWorld(t, 0)
	w.setRule("d1", dnsserver.Always(webIP))
	resp, _, err := w.client.Get(context.Background(), Options{}, "http://d1."+zone+":8080/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 403 {
		t.Fatalf("GET to 8080 returned %d", resp.StatusCode)
	}
}

func TestBadAuthRejected(t *testing.T) {
	w := newTestWorld(t, 0)
	w.setRule("d1", dnsserver.Always(webIP))
	bad := &Client{Net: w.fabric, Src: clientIP, Proxy: proxyIP} // empty user
	resp, _, err := bad.Get(context.Background(), Options{}, "http://d1."+zone+"/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 407 {
		t.Fatalf("status = %d, want 407", resp.StatusCode)
	}
}

func TestHTTPInterceptorModifiesProxiedContent(t *testing.T) {
	w := newTestWorld(t, 0)
	w.setRule("d1", dnsserver.Always(webIP))
	for _, n := range w.nodes {
		n.Path = &middlebox.Path{HTTP: []middlebox.HTTPInterceptor{
			&middlebox.HTMLInjector{Product: "adware", Signature: "msmdzbsyrw.org", SignatureIsURL: true},
		}}
	}
	resp, _, err := w.client.Get(context.Background(), Options{}, "http://d1."+zone+"/object.html")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(resp.Body, []byte("msmdzbsyrw.org")) {
		t.Fatal("injection did not survive the proxy path")
	}
	if bytes.Equal(resp.Body, content.Object(content.KindHTML)) {
		t.Fatal("content unmodified")
	}
}

// sameStripeSessions returns n session numbers of customer user whose pins
// share one stripe of st: the cap and its eviction order are per stripe.
func sameStripeSessions(st *sessionTable, user string, n int) []string {
	var out []string
	var want *sessionStripe
	for i := 0; len(out) < n; i++ {
		s := strconv.Itoa(i)
		stripe := st.stripe(appendSessionKey(nil, user, s))
		if want == nil {
			want = stripe
		}
		if stripe == want {
			out = append(out, s)
		}
	}
	return out
}

// TestSessionTableEvictsPastCap: the cap, not the TTL, is what bounds the
// table on a clock nobody advances. Within a stripe the oldest pins go
// first, a refreshed pin keeps its place in that order, and a pin past its
// TTL is gone the moment it is asked for.
func TestSessionTableEvictsPastCap(t *testing.T) {
	clock := simnet.NewVirtual(t0)
	st := newSessionTable(clock)
	st.cap = 3
	s := sameStripeSessions(st, "u", 4)
	a, d := s[0], s[3]
	for _, sess := range s[:3] {
		st.put("u", sess, "z"+sess)
	}
	st.put("u", a, "za2") // a refresh, not a new pin
	st.put("u", d, "zd")
	if st.len() != 3 {
		t.Fatalf("live sessions = %d, want the cap, 3", st.len())
	}
	if _, ok := st.get("u", a); ok {
		t.Fatal("oldest pin survived eviction")
	}
	if zid, ok := st.get("u", d); !ok || zid != "zd" {
		t.Fatal("newest pin lost")
	}
	if _, ok := st.get("v", d); ok {
		t.Fatal("another customer's session number resolved")
	}
	clock.Advance(2 * SessionTTL)
	if _, ok := st.get("u", d); ok || st.len() != 2 {
		t.Fatalf("expired pin still resolvable (%v), %d live", ok, st.len())
	}
}

// TestSessionTablePinHitAllocatesNothing: looking a pin up and refreshing
// it build no key string, and the refresh leaves the table holding the key
// it made for the pin, through evictions and compactions of the order list.
func TestSessionTablePinHitAllocatesNothing(t *testing.T) {
	const user = "lum-customer-tft"
	st := newSessionTable(simnet.NewVirtual(t0))
	st.cap = 2
	sessions := sameStripeSessions(st, user, 3)
	entries := st.stripe(appendSessionKey(nil, user, sessions[0])).entries
	for round := 0; round < 3; round++ {
		for _, s := range sessions { // the third evicts the first, then the first the second, ...
			st.put(user, s, "z1")
			var held string
			for k := range entries {
				if k == user+"/"+s {
					held = k
				}
			}
			if n := testing.AllocsPerRun(10, func() {
				if zid, ok := st.get(user, s); !ok || zid == "" {
					t.Fatalf("round %d: session %q lost", round, s)
				}
				st.put(user, s, "z2")
			}); n != 0 {
				t.Fatalf("round %d: a pin hit allocates %.0f times", round, n)
			}
			for k := range entries {
				if k == held && unsafe.StringData(k) != unsafe.StringData(held) {
					t.Fatalf("round %d: refresh replaced the table's key string for %q", round, s)
				}
			}
		}
	}
}

func TestNoGoroutineLeaks(t *testing.T) {
	w := newTestWorld(t, 0)
	w.setRule("d1", dnsserver.Always(webIP))
	// Warm up.
	for i := 0; i < 5; i++ {
		w.client.Get(context.Background(), Options{}, "http://d1."+zone+"/")
	}
	runtime.GC()
	base := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		resp, _, err := w.client.Get(context.Background(), Options{}, "http://d1."+zone+"/object.css")
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("request %d: %v %v", i, err, resp)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= base+5 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d -> %d", base, runtime.NumGoroutine())
}
