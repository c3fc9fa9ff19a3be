package proxynet

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tftproject/tft/internal/cert"
	"github.com/tftproject/tft/internal/dnsserver"
	"github.com/tftproject/tft/internal/httpwire"
	"github.com/tftproject/tft/internal/middlebox"
	"github.com/tftproject/tft/internal/origin"
	"github.com/tftproject/tft/internal/simnet"
	"github.com/tftproject/tft/internal/smtpwire"
	"github.com/tftproject/tft/internal/tlssim"
)

var mailIP = netip.MustParseAddr("198.51.100.25")

// smtpFabric wires a mail server and one exit node on a fabric.
func smtpFabric(t *testing.T, path *middlebox.Path) (*simnet.Fabric, *ExitNode) {
	t.Helper()
	f := simnet.NewFabric()
	// SMTP is server-talks-first: the greeting is written at accept, and
	// each line answered on the stream's readiness callbacks.
	f.HandleTCP(mailIP, 25, origin.MailServer(smtpwire.NewServer("mail.tft-example.net")))
	node := &ExitNode{
		ZID: "zsmtp0001", Addr: netip.MustParseAddr("91.9.9.9"), Country: "DE",
		Resolver: dnsserver.NewResolver(netip.MustParseAddr("91.9.0.53"), f,
			func(string) (netip.Addr, bool) { return netip.Addr{}, false }),
		Path: path, Net: f,
	}
	return f, node
}

// tunnelProbe runs an SMTP probe through node.Tunnel.
func tunnelProbe(t *testing.T, node *ExitNode) (*smtpwire.Session, error) {
	t.Helper()
	client, nodeSide := net.Pipe()
	defer client.Close()
	if !node.Tunnel(context.Background(), nodeSide, mailIP, 25, nil) {
		nodeSide.Close()
	}
	return smtpwire.Probe(client, "probe.tft-example.net")
}

func TestTunnelSMTPTransparent(t *testing.T) {
	_, node := smtpFabric(t, nil)
	sess, err := tunnelProbe(t, node)
	if err != nil {
		t.Fatal(err)
	}
	if !sess.StartTLS {
		t.Fatalf("STARTTLS lost through a clean tunnel: %v", sess.Capabilities)
	}
	if !strings.Contains(sess.Banner, "mail.tft-example.net") {
		t.Fatalf("banner = %q", sess.Banner)
	}
}

func TestTunnelSMTPStripper(t *testing.T) {
	path := &middlebox.Path{Stream: []middlebox.STARTTLSStripper{
		middlebox.STARTTLSStripper{Product: "mailguard"},
	}}
	_, node := smtpFabric(t, path)
	sess, err := tunnelProbe(t, node)
	if err != nil {
		t.Fatal(err)
	}
	if sess.StartTLS {
		t.Fatalf("STARTTLS survived the stripper: %v", sess.Capabilities)
	}
	if len(sess.Capabilities) != 2 {
		t.Fatalf("other capabilities damaged: %v", sess.Capabilities)
	}
}

// TestAnyPortTunnelSMTP: an SMTP probe through the super proxy's any-port
// CONNECT — fabric streams end to end, so the splice relays and the mail
// server answers on its stream's readiness callbacks — sees the greeting
// and the EHLO reply, and behind a stripper the reply without STARTTLS.
func TestAnyPortTunnelSMTP(t *testing.T) {
	for _, strip := range []bool{false, true} {
		w := newTestWorld(t, 0)
		w.sp.AnyPortConnect = true
		w.fabric.HandleTCP(mailIP, 25, origin.MailServer(smtpwire.NewServer("mail.tft-example.net")))
		if strip {
			for _, n := range w.nodes {
				n.Path = &middlebox.Path{Stream: []middlebox.STARTTLSStripper{{Product: "mailguard"}}}
			}
		}
		conn, _, err := w.client.Connect(context.Background(), Options{}, mailIP.String()+":25")
		if err != nil {
			t.Fatal(err)
		}
		sess, err := smtpwire.Probe(conn, "probe.tft-example.net")
		conn.Close()
		if err != nil {
			t.Fatalf("stripper %v: %v", strip, err)
		}
		if sess.Banner != "mail.tft-example.net ESMTP tftmail ready" {
			t.Fatalf("stripper %v: banner %q", strip, sess.Banner)
		}
		want := []string{smtpwire.Cap8BitMIME, smtpwire.CapPipelive, smtpwire.CapStartTLS}
		if strip {
			want = want[:2]
		}
		if !slices.Equal(sess.Capabilities, want) || sess.StartTLS != !strip {
			t.Fatalf("stripper %v: capabilities %q, STARTTLS %v", strip, sess.Capabilities, sess.StartTLS)
		}
	}
}

// TestTunnelRewritesByPort: on a node carrying both a certificate replacer
// and a STARTTLS stripper, the stripper owns the mail ports and the
// replacer every other port.
func TestTunnelRewritesByPort(t *testing.T) {
	spec := middlebox.ProductSpec{Product: "Avast", IssuerCN: "Avast Web/Mail Shield Root",
		Kind: "Anti-Virus/Security", Invalid: middlebox.InvalidDistinctIssuer}
	node := &ExitNode{Path: &middlebox.Path{
		TLS:    []*middlebox.CertMITM{spec.Build(t0, cert.NewStore()).Instance("z", func() time.Time { return t0 })},
		Stream: []middlebox.STARTTLSStripper{{Product: "mailguard"}},
	}}
	ehlo := "250-mail.tft-example.net\r\n250-STARTTLS\r\n250 SIZE 1000\r\n"
	for _, tc := range []struct {
		port     uint16
		stripper bool
	}{{25, true}, {587, true}, {443, false}, {8443, false}} {
		c2s, s2c, end := node.rewrites(tc.port)
		if tc.stripper {
			if c2s != nil || end != nil || s2c == nil {
				t.Fatalf("port %d: want the stripper's server rewrite alone", tc.port)
			}
			if got := string(s2c([]byte(ehlo))); strings.Contains(got, "STARTTLS") {
				t.Fatalf("port %d: STARTTLS survived: %q", tc.port, got)
			}
			continue
		}
		if c2s == nil || s2c == nil || end == nil {
			t.Fatalf("port %d: want the handshake rewrites", tc.port)
		}
	}
}

// TestFetchHTTPShowsMonitorsTheFetch: a node's monitor issues its planned
// requests once the node's own fetch is done, and issues them when that
// fetch failed too.
func TestFetchHTTPShowsMonitorsTheFetch(t *testing.T) {
	w := newTestWorld(t, 0)
	node := w.nodes[0]
	// Exported fields, so a failure prints the addresses.
	type refetch struct {
		Src   netip.Addr
		URL   string
		Delay time.Duration
	}
	var got []refetch
	later, ahead := netip.MustParseAddr("150.70.1.1"), netip.MustParseAddr("199.19.250.1")
	node.Path = &middlebox.Path{Monitors: []*middlebox.Watcher{{
		Product: "monitor",
		Requests: []middlebox.RefetchSpec{
			{Delay: middlebox.DelaySpec{Min: 30 * time.Second}, Sources: []netip.Addr{later}},
			{PreFetchProb: 1, Lead: middlebox.DelaySpec{Min: 2 * time.Second}, Sources: []netip.Addr{ahead}},
		},
		Rand: simnet.NewRand(1),
		Refetch: func(src netip.Addr, host, path string, delay time.Duration) {
			got = append(got, refetch{src, host + path, delay})
			// The monitor's request reaches the origin at once.
			conn, err := w.fabric.Dial(context.Background(), src, webIP, 80)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			req := httpwire.NewRequest("GET", path)
			req.Header.Set("Host", host)
			httpwire.Exchange(conn, req)
		},
	}}}
	host := "u1." + zone
	want := []refetch{{later, host + "/obj", 30 * time.Second}, {ahead, host + "/obj", -2 * time.Second}}

	if _, err := node.FetchHTTP(context.Background(), host, 80, "/obj", webIP); err != nil {
		t.Fatal(err)
	}
	var srcs []netip.Addr
	for _, r := range w.web.RequestsFor(host) {
		srcs = append(srcs, r.Src)
	}
	if len(srcs) != 3 || srcs[0] != node.Addr || srcs[1] != later || srcs[2] != ahead {
		t.Fatalf("origin saw requests from %v, want the node %v first, then %v and %v", srcs, node.Addr, later, ahead)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("refetches = %v, want %v", got, want)
	}

	got = nil
	refused := netip.MustParseAddr("198.51.100.200")
	if _, err := node.FetchHTTP(context.Background(), host, 80, "/obj", refused); err == nil {
		t.Fatal("fetch from an origin that refuses connections succeeded")
	}
	if !slices.Equal(got, want) {
		t.Fatalf("after a failed fetch, refetches = %v, want %v", got, want)
	}
}

func TestTunnelBlockedPort(t *testing.T) {
	path := &middlebox.Path{BlockedPorts: []uint16{25}}
	_, node := smtpFabric(t, path)
	client, nodeSide := net.Pipe()
	defer client.Close()
	errCh := make(chan error, 1)
	if node.Tunnel(context.Background(), nodeSide, mailIP, 25, func(err error) { errCh <- err }) {
		t.Fatal("a tunnel to a blocked port detached")
	}
	nodeSide.Close()
	if err := <-errCh; err == nil {
		t.Fatal("tunnel to a blocked port succeeded")
	}
}

func TestTunnelStripperDoesNotTouchOtherPorts(t *testing.T) {
	// The stripper applies to mail ports only; an echo service on another
	// port must pass bytes through unmodified even with the stripper on
	// the path.
	path := &middlebox.Path{Stream: []middlebox.STARTTLSStripper{
		middlebox.STARTTLSStripper{Product: "mailguard"},
	}}
	f, node := smtpFabric(t, path)
	echoIP := netip.MustParseAddr("198.51.100.77")
	f.HandleTCP(echoIP, 7777, func(conn net.Conn) {
		defer conn.Close()
		buf := make([]byte, 256)
		n, _ := conn.Read(buf)
		conn.Write(buf[:n])
	})
	client, nodeSide := net.Pipe()
	defer client.Close()
	if !node.Tunnel(context.Background(), nodeSide, echoIP, 7777, nil) {
		t.Fatal("the tunnel to the echo service did not start")
	}
	payload := "250-STARTTLS would be stripped if this were port 25\r\n"
	if _, err := client.Write([]byte(payload)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(payload))
	n, err := client.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != payload {
		t.Fatalf("echo altered: %q", buf[:n])
	}
}

func TestFetchHTTPVPNEgress(t *testing.T) {
	f, node := smtpFabric(t, nil)
	vpn := netip.MustParseAddr("203.0.113.200")
	node.Path = &middlebox.Path{VPNEgress: vpn}
	seen := make(chan netip.Addr, 1)
	webIP2 := netip.MustParseAddr("198.51.100.80")
	f.HandleTCP(webIP2, 80, func(conn net.Conn) {
		defer conn.Close()
		src, _ := simnet.RemoteIP(conn)
		seen <- src
		// net.Pipe is synchronous: drain the request before replying.
		if _, err := httpwire.ReadRequest(bufio.NewReader(conn)); err != nil {
			return
		}
		httpwire.NewResponse(200, nil).Write(conn)
	})
	if _, err := node.FetchHTTP(context.Background(), "x.example", 80, "/", webIP2); err != nil {
		t.Fatal(err)
	}
	if got := <-seen; got != vpn {
		t.Fatalf("origin saw %v, want VPN egress %v", got, vpn)
	}
}

func TestResolveAWithServFailUpstream(t *testing.T) {
	_, node := smtpFabric(t, nil)
	_, rcode, err := node.ResolveA(context.Background(), "whatever.example")
	if err != nil {
		t.Fatal(err)
	}
	if rcode.String() != "SERVFAIL" {
		t.Fatalf("rcode = %v", rcode)
	}
}

// scriptConn is a scripted net.Conn, a socket leg for the tunnel's
// error-propagation tests: Read serves the scripted payloads (each after
// readGate, when set) and then returns readErr; Write waits for writeGate,
// when set, and fails with writeErr when that is set. Close fails a Read
// waiting on its gate with net.ErrClosed.
type scriptConn struct {
	reads     [][]byte
	readGate  <-chan struct{}
	readErr   error
	writeGate <-chan struct{}
	writeErr  error
	eofSent   chan struct{} // closed when Read has returned readErr
	closed    chan struct{}
	close     sync.Once
}

func newScriptConn() *scriptConn {
	return &scriptConn{readErr: io.EOF, eofSent: make(chan struct{}),
		closed: make(chan struct{})}
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if c.readGate != nil {
		select {
		case <-c.readGate:
		case <-c.closed:
			return 0, net.ErrClosed
		}
	}
	if len(c.reads) == 0 {
		select {
		case <-c.eofSent:
		default:
			close(c.eofSent)
		}
		return 0, c.readErr
	}
	n := copy(p, c.reads[0])
	if c.reads[0] = c.reads[0][n:]; len(c.reads[0]) == 0 {
		c.reads = c.reads[1:]
	}
	return n, nil
}

func (c *scriptConn) Write(p []byte) (int, error) {
	if c.writeGate != nil {
		<-c.writeGate
	}
	if c.writeErr != nil {
		return 0, c.writeErr
	}
	return len(p), nil
}

func (c *scriptConn) Close() error {
	c.close.Do(func() { close(c.closed) })
	return nil
}

func (c *scriptConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (c *scriptConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (c *scriptConn) SetDeadline(t time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(t time.Time) error { return nil }

// connDialer dials conn, whatever the address.
type connDialer struct{ conn net.Conn }

func (d connDialer) Dial(context.Context, netip.Addr, netip.Addr, uint16) (net.Conn, error) {
	return d.conn, nil
}

// scriptTunnel runs a tunnel between two scripted socket legs through
// ExitNode.Tunnel and returns what its done reported.
func scriptTunnel(t *testing.T, client, server *scriptConn) error {
	t.Helper()
	node := &ExitNode{ZID: "zscript01", Net: connDialer{server}}
	ended := make(chan error, 1)
	if !node.Tunnel(context.Background(), client, mailIP, 25, func(err error) { ended <- err }) {
		t.Fatal("the tunnel did not start")
	}
	return waitEnded(t, ended)
}

// TestTunnelSurfacesSocketErrorBehindBenignEOF pins the error contract of a
// tunnel between real sockets: the server leg sends more than the relay
// can hold below the splice and then ends in a clean EOF; only then does
// the client socket's write fail. The tunnel must report that failure as a
// transport fault, not the EOF before it as an orderly close. Below the
// splice sit the client bridge's window and one 32 KB read of its socket
// writer, 96 KB; with that writer blocked, the relay as a whole holds at
// least 160 KB (both bridges' windows and that read). The 128 KB payload
// lies between, so the server's EOF is read before the write fails, and
// the splice cannot have reached it.
func TestTunnelSurfacesSocketErrorBehindBenignEOF(t *testing.T) {
	server := newScriptConn()
	server.reads = [][]byte{make([]byte, 128<<10)}
	client := newScriptConn()
	client.writeErr = errors.New("client write: connection reset")
	client.writeGate = server.eofSent     // fail only after the server's EOF
	client.readGate = make(chan struct{}) // and send nothing until closed

	err := scriptTunnel(t, client, server)
	if err == nil || !IsTransportFault(err) {
		t.Fatalf("tunnel reported %v, want a transport fault", err)
	}
}

// TestTunnelBenignBothWays: both socket legs ending in EOF is a clean
// teardown, not an error.
func TestTunnelBenignBothWays(t *testing.T) {
	client := newScriptConn()
	server := newScriptConn()
	server.reads = [][]byte{[]byte("hello")}
	if err := scriptTunnel(t, client, server); err != nil {
		t.Fatalf("clean teardown reported %v, want nil", err)
	}
}

// deadlineConn records every SetDeadline made on the conn it wraps: the
// budgets the node and the super proxy ask of a real socket, on the wall
// clock. The fabric stream beneath refuses them, as it refuses every
// deadline.
type deadlineConn struct {
	net.Conn
	mu        sync.Mutex
	deadlines []time.Time
}

func (c *deadlineConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadlines = append(c.deadlines, t)
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

// deadlineDialer wraps each conn it dials in a deadlineConn.
type deadlineDialer struct {
	Dialer
	conns []*deadlineConn
}

func (d *deadlineDialer) Dial(ctx context.Context, src, dst netip.Addr, port uint16) (net.Conn, error) {
	conn, err := d.Dialer.Dial(ctx, src, dst, port)
	if err != nil {
		return nil, err
	}
	dc := &deadlineConn{Conn: conn}
	d.conns = append(d.conns, dc)
	return dc, nil
}

// TestExitNodeBudgetsWithoutClock: a node whose legs are not fabric
// streams — cmd/exitnode's real sockets — arms its fetch and tunnel budgets
// on the wall clock, and clears each when the leg ends.
func TestExitNodeBudgetsWithoutClock(t *testing.T) {
	f, node := smtpFabric(t, nil)
	dialer := &deadlineDialer{Dialer: f}
	node.Net = dialer
	webIP2 := netip.MustParseAddr("198.51.100.80")
	f.HandleTCP(webIP2, 80, func(conn net.Conn) {
		defer conn.Close()
		if _, err := httpwire.ReadRequest(bufio.NewReader(conn)); err != nil {
			return
		}
		httpwire.NewResponse(200, nil).Write(conn)
	})
	check := func(leg string, budget time.Duration, do func()) {
		t.Helper()
		before := time.Now()
		do()
		after := time.Now()
		if len(dialer.conns) != 1 {
			t.Fatalf("%s dialed %d conns, want 1", leg, len(dialer.conns))
		}
		c := dialer.conns[0]
		dialer.conns = nil
		c.mu.Lock()
		defer c.mu.Unlock()
		if len(c.deadlines) != 2 {
			t.Fatalf("%s set %d deadlines (%v), want the budget then a clear", leg, len(c.deadlines), c.deadlines)
		}
		if armed := c.deadlines[0]; armed.Before(before.Add(budget)) || armed.After(after.Add(budget)) {
			t.Fatalf("%s armed %v, want %v after a wall time in [%v, %v]", leg, armed, budget, before, after)
		}
		if !c.deadlines[1].IsZero() {
			t.Fatalf("%s left the deadline at %v", leg, c.deadlines[1])
		}
	}
	check("fetch", fetchBudget, func() {
		if _, err := node.FetchHTTP(context.Background(), "x.example", 80, "/", webIP2); err != nil {
			t.Fatal(err)
		}
	})
	check("tunnel", tunnelBudget, func() {
		client, nodeSide := net.Pipe()
		ended := make(chan error, 1)
		if !node.Tunnel(context.Background(), nodeSide, mailIP, 25, func(err error) { ended <- err }) {
			t.Fatal("the tunnel did not start")
		}
		if _, err := smtpwire.Probe(client, "probe.tft-example.net"); err != nil {
			t.Fatal(err)
		}
		client.Close()
		<-ended // the budget is cleared before done fires
	})
}

// TestSuperProxyWriteBudgetOnSockets: the super proxy bounds each response
// write to a client that is not a fabric stream by respWriteBudget on the
// wall clock and clears the bound after the write, for a forwarded response
// and for an error response (fail) alike.
func TestSuperProxyWriteBudgetOnSockets(t *testing.T) {
	w := newTestWorld(t, 0)
	w.setRule("d1", dnsserver.Always(webIP))
	var conns []*deadlineConn
	w.fabric.HandleTCP(proxyIP, ProxyPort, func(conn net.Conn) {
		dc := &deadlineConn{Conn: conn}
		conns = append(conns, dc)
		if !w.sp.ServeConn(dc) {
			dc.Close()
		}
	})
	// d1 is forwarded; d2 has no rule, so the super proxy's existence check
	// fails it with a 502.
	for host, status := range map[string]int{"d1": 200, "d2": 502} {
		before := time.Now()
		resp, _, err := w.client.Get(context.Background(), Options{}, "http://"+host+"."+zone+"/")
		after := time.Now()
		if err != nil || resp.StatusCode != status {
			t.Fatalf("%s: %v, %v; want status %d", host, resp, err, status)
		}
		c := conns[len(conns)-1]
		c.mu.Lock()
		deadlines := c.deadlines
		c.mu.Unlock()
		if len(deadlines) != 2 {
			t.Fatalf("%s set deadlines %v, want the budget then a clear", host, deadlines)
		}
		if armed := deadlines[0]; armed.Before(before.Add(respWriteBudget)) || armed.After(after.Add(respWriteBudget)) {
			t.Fatalf("%s armed %v, want %v after a wall time in [%v, %v]", host, armed, respWriteBudget, before, after)
		}
		if !deadlines[1].IsZero() {
			t.Fatalf("%s left the deadline at %v", host, deadlines[1])
		}
	}
}

// TestFabricStreamsArmNoDeadline: a proxied request over fabric streams
// schedules nothing on the world's virtual clock. The origin of a GET, a
// site as it accepts a CONNECT tunnel, and the tunnel while it is live all
// see Pending() == 0: a budget could not fire there, so none is armed.
func TestFabricStreamsArmNoDeadline(t *testing.T) {
	w := newTestWorld(t, 0)
	w.setRule("d1", dnsserver.Always(webIP))
	web := w.web.ConnHandler()
	atGet := -1
	w.fabric.HandleTCP(webIP, 80, func(conn net.Conn) {
		atGet = w.clock.Pending()
		web(conn)
	})
	resp, _, err := w.client.Get(context.Background(), Options{}, "http://d1."+zone+"/")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("GET: %v, %v", resp, err)
	}
	if atGet != 0 {
		t.Fatalf("%d callbacks pending on the virtual clock while the origin served a GET", atGet)
	}

	root := cert.NewRootCA(cert.Name{CommonName: "Site Root"}, "sr", t0.Add(-time.Hour), 1000*time.Hour)
	leaf := root.Issue(cert.Template{Subject: cert.Name{CommonName: "site.example"},
		NotBefore: t0.Add(-time.Hour), NotAfter: t0.Add(1000 * time.Hour), KeySeed: "site"})
	site := origin.TLSSite(func(string) []*cert.Certificate { return []*cert.Certificate{leaf, root.Cert} })
	atAccept := -1
	w.fabric.HandleTCP(siteIP, 443, func(conn net.Conn) {
		atAccept = w.clock.Pending()
		site(conn)
	})
	conn, _, err := w.client.Connect(context.Background(), Options{}, siteIP.String()+":443")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := tlssim.CollectChain(conn, "site.example"); err != nil {
		t.Fatal(err)
	}
	if live := w.clock.Pending(); atAccept != 0 || live != 0 {
		t.Fatalf("callbacks pending on the virtual clock: %d as the site accepted the tunnel, %d while it is live", atAccept, live)
	}
}
