package proxynet

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/netip"
	"testing"
	"time"

	"github.com/tftproject/tft/internal/cert"
	"github.com/tftproject/tft/internal/httpwire"
	"github.com/tftproject/tft/internal/middlebox"
	"github.com/tftproject/tft/internal/origin"
	"github.com/tftproject/tft/internal/simnet"
	"github.com/tftproject/tft/internal/tlssim"
)

// faultDialer hands each stream it dials to inject before returning it,
// still a *simnet.Stream, so the tunnel keeps the splice.
type faultDialer struct {
	Dialer
	inject func(*simnet.Stream)
}

func (d faultDialer) Dial(ctx context.Context, src, dst netip.Addr, port uint16) (net.Conn, error) {
	conn, err := d.Dialer.Dial(ctx, src, dst, port)
	if err == nil {
		d.inject(conn.(*simnet.Stream))
	}
	return conn, err
}

// tunnelRun is what one intercepted tunnel showed: the chain the client
// collected and the handshake's error, whether Tunnel detached, and the
// outcome it reported to done.
type tunnelRun struct {
	chain    []*cert.Certificate
	err      error
	detached bool
	outcome  error
}

// interceptedTunnel collects site.example's chain through one tunnel of
// an exit node whose path carries an Avast interceptor. The tunnel's
// client leg is a fabric stream; its server leg is whatever dial, given
// the fabric, returns.
func interceptedTunnel(t *testing.T, dial func(*simnet.Fabric) Dialer) tunnelRun {
	t.Helper()
	f := simnet.NewFabric()
	root := cert.NewRootCA(cert.Name{CommonName: "Site Root"}, "sr", t0.Add(-time.Hour), 1000*time.Hour)
	leaf := root.Issue(cert.Template{Subject: cert.Name{CommonName: "site.example"},
		NotBefore: t0.Add(-time.Hour), NotAfter: t0.Add(1000 * time.Hour), KeySeed: "site"})
	f.HandleTCP(siteIP, 443, origin.TLSSite(func(string) []*cert.Certificate {
		return []*cert.Certificate{leaf, root.Cert}
	}))
	spec := middlebox.ProductSpec{Product: "Avast", IssuerCN: "Avast Web/Mail Shield Root",
		Kind: "Anti-Virus/Security", Invalid: middlebox.InvalidDistinctIssuer}
	node := &ExitNode{
		ZID: "zmitm0001", Addr: netip.MustParseAddr("91.9.9.10"), Country: "DE", Net: dial(f),
		Path: &middlebox.Path{TLS: []*middlebox.CertMITM{
			spec.Build(t0, cert.NewStore(root.Cert)).Instance("zmitm0001", func() time.Time { return t0 }),
		}},
	}
	entry := netip.MustParseAddr("91.9.9.11")
	ended, detaches := make(chan error, 1), make(chan bool, 1)
	f.HandleTCP(entry, 8443, func(conn net.Conn) {
		detaches <- node.Tunnel(context.Background(), conn, siteIP, 443, func(err error) { ended <- err })
	})
	conn, err := f.Dial(context.Background(), clientIP, entry, 8443)
	if err != nil {
		t.Fatal(err)
	}
	var run tunnelRun
	run.chain, run.err = tlssim.CollectChain(conn, "site.example")
	conn.Close()
	run.detached, run.outcome = <-detaches, <-ended
	return run
}

// replacedCleanly fails t unless the client got the interceptor's chain
// from a tunnel that detached and ended without error.
func replacedCleanly(t *testing.T, run tunnelRun) {
	t.Helper()
	if run.err != nil {
		t.Fatal(run.err)
	}
	if got := run.chain[0].Issuer.CommonName; got != "Avast Web/Mail Shield Root" {
		t.Fatalf("issuer = %q, want the interceptor's", got)
	}
	if !run.detached || run.outcome != nil {
		t.Fatalf("detached %v, outcome %v; want a detached relay, ending cleanly", run.detached, run.outcome)
	}
}

// TestInterceptedTunnelTrickledServer: the certificate record reaches the
// splice seven bytes at a time, as under slow-network; the interceptor
// still sees it whole, and its replacement reaches the client.
func TestInterceptedTunnelTrickledServer(t *testing.T) {
	replacedCleanly(t, interceptedTunnel(t, func(f *simnet.Fabric) Dialer {
		return faultDialer{Dialer: f, inject: func(s *simnet.Stream) { s.InjectTrickle(7) }}
	}))
}

// TestInterceptedTunnelTruncatedCertificate: the server leg ends cleanly
// inside the certificate record. Nothing reaches the client, and the
// tunnel reports the record cut short, not an orderly close.
func TestInterceptedTunnelTruncatedCertificate(t *testing.T) {
	run := interceptedTunnel(t, func(f *simnet.Fabric) Dialer {
		return faultDialer{Dialer: f, inject: func(s *simnet.Stream) { s.InjectTruncate(40) }}
	})
	if run.err == nil {
		t.Fatal("the client collected a chain through a truncated record")
	}
	if !errors.Is(run.outcome, io.ErrUnexpectedEOF) {
		t.Fatalf("outcome = %v, want io.ErrUnexpectedEOF", run.outcome)
	}
}

// TestInterceptedTunnelSocketServer: a fabric client tunnelled to a server
// leg that is no fabric stream — bridged into the splice by simnet.AsStream
// — carries the same rewrite.
func TestInterceptedTunnelSocketServer(t *testing.T) {
	replacedCleanly(t, interceptedTunnel(t, func(f *simnet.Fabric) Dialer {
		return &deadlineDialer{Dialer: f}
	}))
}

// TestGatewayTunnelKeepsBytesAfterItsResponse: an agent may send the
// tunnel's first bytes in the same write as its 200 — a server-talks-first
// origin's greeting. The gateway's tunnel relays them rather than leaving
// them in the reader that parsed the response.
func TestGatewayTunnelKeepsBytesAfterItsResponse(t *testing.T) {
	agent, gateway := net.Pipe()
	p := &remotePeer{zid: "zagent001", idle: make(chan net.Conn, 1)}
	if !p.addConn(gateway) {
		t.Fatal("addConn refused the agent connection")
	}
	go func() {
		defer agent.Close()
		if _, err := httpwire.ReadRequest(bufio.NewReader(agent)); err != nil {
			return
		}
		agent.Write([]byte("HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n220 banner\r\n"))
	}()
	client, nodeSide := net.Pipe()
	ended := make(chan error, 1)
	go p.Tunnel(context.Background(), nodeSide, mailIP, 25, func(err error) { ended <- err })
	got, err := io.ReadAll(client)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "220 banner\r\n" {
		t.Fatalf("the client read %q, want the greeting", got)
	}
	if err := <-ended; err != nil {
		t.Fatalf("tunnel outcome %v", err)
	}
}
