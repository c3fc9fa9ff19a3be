package origin

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"net/netip"
	"testing"
	"time"

	"github.com/tftproject/tft/internal/cert"
	"github.com/tftproject/tft/internal/content"
	"github.com/tftproject/tft/internal/httpwire"
	"github.com/tftproject/tft/internal/simnet"
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

// helloConn is the server end of one handshake: it reads a hello and keeps
// the last buffer the handler wrote.
type helloConn struct {
	net.Conn // nil: a TLS site only reads, writes and closes
	hello    bytes.Reader
	last     []byte
	writes   int
}

func (c *helloConn) Read(p []byte) (int, error) { return c.hello.Read(p) }

func (c *helloConn) Write(p []byte) (int, error) {
	c.last, c.writes = p, c.writes+1
	return len(p), nil
}

func (c *helloConn) Close() error { return nil }

// TestFramedTLSSiteServesTheRecordItHolds: on a connection that is not a
// fabric stream (a real socket), a site answers a handshake by writing the
// record it was given — that buffer, in one Write, no chain encoded — so
// serving costs what reading the hello does: its header, its payload and
// the server name, three allocations (five before, when every handshake
// encoded the chain and wrote the header apart). TestTLSSiteAllocs counts
// the readiness form a fabric stream gets.
func TestFramedTLSSiteServesTheRecordItHolds(t *testing.T) {
	root := cert.NewRootCA(cert.Name{CommonName: "R"}, "r", t0.Add(-time.Hour), 1000*time.Hour)
	leaf := root.Issue(cert.Template{Subject: cert.Name{CommonName: "site.example"},
		NotBefore: t0.Add(-time.Hour), NotAfter: t0.Add(1000 * time.Hour), KeySeed: "s"})
	rec := tlssim.FrameChain([]*cert.Certificate{leaf, root.Cert})
	const sni = "site.example"
	hello := append([]byte{byte(tlssim.RecordClientHello), 0, 0, 2 + byte(len(sni)), 0, byte(len(sni))}, sni...)
	serve := FramedTLSSite(func(string) []byte { return rec })
	conn := &helloConn{}
	if n := testing.AllocsPerRun(100, func() {
		conn.hello.Reset(hello)
		conn.writes = 0
		serve(conn)
		if conn.writes != 1 || len(conn.last) != len(rec) || &conn.last[0] != &rec[0] {
			t.Fatalf("the site wrote %d times, last %d bytes; want its %d-byte record once", conn.writes, len(conn.last), len(rec))
		}
	}); n > 3 {
		t.Errorf("serving a framed record allocated %v times, want at most 3", n)
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
