package origin

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/netip"
	"testing"
	"time"

	"github.com/tftproject/tft/internal/cert"
	"github.com/tftproject/tft/internal/content"
	"github.com/tftproject/tft/internal/httpwire"
	"github.com/tftproject/tft/internal/proxynet"
	"github.com/tftproject/tft/internal/simnet"
	"github.com/tftproject/tft/internal/smtpwire"
	"github.com/tftproject/tft/internal/tlssim"
)

var (
	t0     = time.Date(2016, 4, 13, 0, 0, 0, 0, time.UTC)
	nodeIP = netip.MustParseAddr("91.4.4.4")
	monIP  = netip.MustParseAddr("150.70.2.2")
	srvIP  = netip.MustParseAddr("198.51.100.10")
)

func getReq(host, path string) *httpwire.Request {
	req := httpwire.NewRequest("GET", path)
	req.Header.Set("Host", host)
	return req
}

func TestServesAllObjects(t *testing.T) {
	s := NewServer(simnet.NewVirtual(t0))
	for _, k := range content.Kinds {
		resp := s.Handle(nodeIP, getReq("d.example.net", k.Path()))
		if resp.StatusCode != 200 {
			t.Fatalf("%v: status %d", k, resp.StatusCode)
		}
		if !bytes.Equal(resp.Body, content.Object(k)) {
			t.Fatalf("%v: body mismatch", k)
		}
		if resp.Header.Get("Content-Type") != k.ContentType() {
			t.Fatalf("%v: content-type %q", k, resp.Header.Get("Content-Type"))
		}
	}
}

func TestIndexPage(t *testing.T) {
	s := NewServer(simnet.NewVirtual(t0))
	resp := s.Handle(nodeIP, getReq("d.example.net", "/"))
	if resp.StatusCode != 200 || len(resp.Body) == 0 {
		t.Fatalf("index: %d", resp.StatusCode)
	}
}

func TestLogRecordsHostSrcTime(t *testing.T) {
	clock := simnet.NewVirtual(t0)
	s := NewServer(clock)
	s.Handle(nodeIP, getReq("u-node1.probe.example", "/"))
	clock.Advance(42 * time.Second)
	s.Handle(monIP, getReq("u-node1.probe.example", "/"))
	reqs := s.RequestsFor("u-node1.probe.example")
	if len(reqs) != 2 {
		t.Fatalf("logged %d", len(reqs))
	}
	if reqs[0].Src != nodeIP || reqs[1].Src != monIP {
		t.Fatalf("srcs = %v %v", reqs[0].Src, reqs[1].Src)
	}
	if got := reqs[1].Time.Sub(reqs[0].Time); got != 42*time.Second {
		t.Fatalf("delta = %v", got)
	}
	if s.RequestCount() != 2 {
		t.Fatalf("count = %d", s.RequestCount())
	}
}

func TestHostHeaderPortStripped(t *testing.T) {
	s := NewServer(simnet.NewVirtual(t0))
	req := getReq("d.example.net:80", "/")
	s.Handle(nodeIP, req)
	if len(s.RequestsFor("d.example.net")) != 1 {
		t.Fatal("host with port not normalized")
	}
}

func TestSkewBackdatesWhenAllowed(t *testing.T) {
	clock := simnet.NewVirtual(t0.Add(time.Hour))
	s := NewServer(clock)
	s.AllowSkew = true
	req := getReq("d.example.net", "/")
	req.Header.Set(SkewHeader, "-1.5s")
	s.Handle(monIP, req)
	reqs := s.RequestsFor("d.example.net")
	if want := t0.Add(time.Hour - 1500*time.Millisecond); !reqs[0].Time.Equal(want) {
		t.Fatalf("time = %v, want %v", reqs[0].Time, want)
	}
}

func TestSkewIgnoredByDefault(t *testing.T) {
	clock := simnet.NewVirtual(t0)
	s := NewServer(clock)
	req := getReq("d.example.net", "/")
	req.Header.Set(SkewHeader, "-10s")
	s.Handle(monIP, req)
	if !s.RequestsFor("d.example.net")[0].Time.Equal(t0) {
		t.Fatal("skew honoured without AllowSkew")
	}
}

func TestConnHandlerOverFabric(t *testing.T) {
	f := simnet.NewFabric()
	s := NewServer(simnet.NewVirtual(t0))
	f.HandleTCP(srvIP, 80, s.ConnHandler())
	conn, err := f.Dial(context.Background(), nodeIP, srvIP, 80)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := getReq("d.example.net", "/object.css")
	resp, err := httpwire.RoundTrip(conn, bufio.NewReader(conn), req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Body, content.Object(content.KindCSS)) {
		t.Fatal("CSS body mismatch over fabric")
	}
	reqs := s.RequestsFor("d.example.net")
	if len(reqs) != 1 || reqs[0].Src != nodeIP {
		t.Fatalf("log = %+v", reqs)
	}
}

func TestStaticPage(t *testing.T) {
	f := simnet.NewFabric()
	landing := []byte("<html><body><a href=\"http://searchassist.verizon.com\">go</a></body></html>")
	f.HandleTCP(srvIP, 80, StaticPage(landing, "text/html"))
	conn, err := f.Dial(context.Background(), nodeIP, srvIP, 80)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	resp, err := httpwire.RoundTrip(conn, bufio.NewReader(conn), getReq("whatever.example", "/"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Body, landing) {
		t.Fatal("landing body mismatch")
	}
}

func TestTLSSiteOverFabric(t *testing.T) {
	f := simnet.NewFabric()
	root := cert.NewRootCA(cert.Name{CommonName: "R"}, "r", t0.Add(-time.Hour), 1000*time.Hour)
	leaf := root.Issue(cert.Template{Subject: cert.Name{CommonName: "site.example"},
		NotBefore: t0.Add(-time.Hour), NotAfter: t0.Add(1000 * time.Hour), KeySeed: "s"})
	chain := []*cert.Certificate{leaf, root.Cert}
	f.HandleTCP(srvIP, 443, TLSSite(func(sni string) []*cert.Certificate {
		if sni == "site.example" {
			return chain
		}
		return nil
	}))
	conn, err := f.Dial(context.Background(), nodeIP, srvIP, 443)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got, err := tlssim.CollectChain(conn, "site.example")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Subject.CommonName != "site.example" {
		t.Fatalf("chain = %+v", got)
	}
}

// serveLoopback serves h on a loopback listener through
// proxynet.ServeListener, as cmd/originweb and the real-network rigs do,
// and returns the listener's address.
func serveLoopback(t *testing.T, h simnet.ConnHandler) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go proxynet.ServeListener(l, h)
	return l.Addr().String()
}

// TestFramedTLSSiteServesTheRecordItHolds: on a real socket a site answers
// a handshake with the record it was given, byte for byte, and closes; the
// record carries the chain the client collects. TestTLSSiteAllocs counts
// the readiness form every connection is served by.
func TestFramedTLSSiteServesTheRecordItHolds(t *testing.T) {
	root := cert.NewRootCA(cert.Name{CommonName: "R"}, "r", t0.Add(-time.Hour), 1000*time.Hour)
	leaf := root.Issue(cert.Template{Subject: cert.Name{CommonName: "site.example"},
		NotBefore: t0.Add(-time.Hour), NotAfter: t0.Add(1000 * time.Hour), KeySeed: "s"})
	rec := tlssim.FrameChain([]*cert.Certificate{leaf, root.Cert})
	const sni = "site.example"
	addr := serveLoopback(t, FramedTLSSite(func(name string) []byte {
		if name == sni {
			return rec
		}
		return nil
	}))

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := append([]byte{byte(tlssim.RecordClientHello), 0, 0, 2 + byte(len(sni)), 0, byte(len(sni))}, sni...)
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, rec) {
		t.Fatalf("the site sent %d bytes and closed; want its %d-byte record", len(got), len(rec))
	}

	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	chain, err := tlssim.CollectChain(conn2, sni)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 || chain[0].Subject.CommonName != sni || chain[1].Subject.CommonName != "R" {
		t.Fatalf("collected %d certificates, want the site's leaf and root", len(chain))
	}
}

// TestMailServerOverSocket: the mail server answers an SMTP probe on a
// real socket: the greeting at accept, then the EHLO reply.
func TestMailServerOverSocket(t *testing.T) {
	addr := serveLoopback(t, MailServer(smtpwire.NewServer("mail.tft-example.net")))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sess, err := smtpwire.Probe(conn, "probe.tft-example.net")
	if err != nil {
		t.Fatal(err)
	}
	if sess.Banner != "mail.tft-example.net ESMTP tftmail ready" || !sess.StartTLS {
		t.Fatalf("banner %q, capabilities %q", sess.Banner, sess.Capabilities)
	}
}

func TestNonGETRejected(t *testing.T) {
	s := NewServer(simnet.NewVirtual(t0))
	req := httpwire.NewRequest("POST", "/object.html")
	req.Header.Set("Host", "d.example.net")
	if resp := s.Handle(nodeIP, req); resp.StatusCode != 400 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

// TestTakeIsReadThenForget: Take hands over what RequestsFor would read, in
// arrival order, and leaves what Forget would: nothing for the host, the
// count unchanged, and a second Take that returns nothing.
func TestTakeIsReadThenForget(t *testing.T) {
	s := NewServer(simnet.NewVirtual(t0))
	const host = "d1-s1.probe.example"
	s.Handle(nodeIP, getReq(host, "/"))
	s.Handle(monIP, getReq(host, "/"))
	want := s.RequestsFor(host)
	if len(want) != 2 || want[0].Src != nodeIP || want[1].Src != monIP {
		t.Fatalf("RequestsFor = %+v, want the node's request, then the monitor's", want)
	}
	if got := s.Take(host); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Take = %+v, want %+v", got, want)
	}
	if r := s.RequestsFor(host); len(r) != 0 {
		t.Fatalf("after Take the log still holds %+v", r)
	}
	if again := s.Take(host); len(again) != 0 {
		t.Fatalf("a second Take = %+v, want nothing", again)
	}
	if n := s.RequestCount(); n != 2 {
		t.Fatalf("RequestCount after Take = %d, want 2", n)
	}
}
