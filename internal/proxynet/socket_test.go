package proxynet

import (
	"context"
	"io"
	"net"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"github.com/tftproject/tft/internal/cert"
	"github.com/tftproject/tft/internal/origin"
	"github.com/tftproject/tft/internal/simnet"
	"github.com/tftproject/tft/internal/smtpwire"
	"github.com/tftproject/tft/internal/tlssim"
)

// socketPairs hands out connected pairs of loopback TCP sockets.
type socketPairs struct {
	t *testing.T
	l net.Listener
}

func newSocketPairs(t *testing.T) *socketPairs {
	t.Helper()
	l, _ := listenTCP(t, localIP())
	t.Cleanup(func() { l.Close() })
	return &socketPairs{t: t, l: l}
}

// pair returns the dialing end and the accepted end of a fresh connection.
func (p *socketPairs) pair() (client, server net.Conn) {
	p.t.Helper()
	client, err := net.Dial("tcp", p.l.Addr().String())
	if err != nil {
		p.t.Fatal(err)
	}
	server, err = p.l.Accept()
	if err != nil {
		p.t.Fatal(err)
	}
	return client, server
}

// waitEnded returns what a tunnel's done reported, failing t if it never
// fires.
func waitEnded(t *testing.T, ended <-chan error) error {
	t.Helper()
	select {
	case err := <-ended:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("the tunnel never ended")
		return nil
	}
}

// TestSocketClientTunnelToTalkFirstOrigin: a tunnel whose client leg is a
// real socket detaches onto the event core like a fabric one, and the
// mail server behind it, which talks first, greets the client: the
// bridge's blocked reads drain the fabric's run queue, where the dial
// queued the server's accept.
func TestSocketClientTunnelToTalkFirstOrigin(t *testing.T) {
	_, node := smtpFabric(t, nil)
	client, nodeSide := newSocketPairs(t).pair()
	defer client.Close()
	ended, detached := make(chan error, 1), make(chan bool, 1)
	go func() {
		detached <- node.Tunnel(context.Background(), nodeSide, mailIP, 25, func(err error) { ended <- err })
	}()
	select {
	case ok := <-detached:
		if !ok {
			t.Fatal("the tunnel did not start")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Tunnel blocked on a socket client instead of detaching")
	}
	sess, err := smtpwire.Probe(client, "probe.tft-example.net")
	if err != nil {
		t.Fatal(err)
	}
	if sess.Banner != "mail.tft-example.net ESMTP tftmail ready" || !sess.StartTLS {
		t.Fatalf("banner %q, capabilities %q", sess.Banner, sess.Capabilities)
	}
	client.Close()
	if err := waitEnded(t, ended); err != nil {
		t.Fatalf("tunnel outcome %v", err)
	}
}

// TestSocketTunnelsLeaveNoGoroutines: after 50 tunnels from real sockets
// to a fabric TLS site, each bridge's two goroutines are gone.
func TestSocketTunnelsLeaveNoGoroutines(t *testing.T) {
	f := simnet.NewFabric()
	root := cert.NewRootCA(cert.Name{CommonName: "Site Root"}, "sr", t0.Add(-time.Hour), 1000*time.Hour)
	leaf := root.Issue(cert.Template{Subject: cert.Name{CommonName: "site.example"},
		NotBefore: t0.Add(-time.Hour), NotAfter: t0.Add(1000 * time.Hour), KeySeed: "site"})
	f.HandleTCP(siteIP, 443, origin.TLSSite(func(string) []*cert.Certificate {
		return []*cert.Certificate{leaf, root.Cert}
	}))
	node := &ExitNode{ZID: "zsock0001", Addr: netip.MustParseAddr("91.9.9.12"), Net: f}
	pairs := newSocketPairs(t)
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		client, nodeSide := pairs.pair()
		ended := make(chan error, 1)
		if !node.Tunnel(context.Background(), nodeSide, siteIP, 443, func(err error) { ended <- err }) {
			t.Fatal("the tunnel did not start")
		}
		chain, err := tlssim.CollectChain(client, "site.example")
		if err != nil || len(chain) != 2 {
			t.Fatalf("tunnel %d: %d certificates, %v", i, len(chain), err)
		}
		client.Close()
		if err := waitEnded(t, ended); err != nil {
			t.Fatalf("tunnel %d outcome %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 50 tunnels, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAgentCancelEndsLiveTunnel: a CONNECT the agent detached onto its
// node's relay still ends when the agent's context is cancelled.
func TestAgentCancelEndsLiveTunnel(t *testing.T) {
	r := newTCPRig(t, netip.Addr{}, nil)
	// An echo origin that keeps its connections open.
	el, echoPort := listenTCP(t, localIP())
	t.Cleanup(func() { el.Close() })
	go ServeListener(el, func(conn net.Conn) {
		defer conn.Close()
		io.Copy(conn, conn)
	})
	stop := r.startAgent("zremote09", "DE", nil)
	r.waitPeers("zremote09")
	peer, _ := r.pool.Get("zremote09")

	client, gatewaySide := net.Pipe()
	defer client.Close()
	ended := make(chan error, 1)
	if !peer.Tunnel(context.Background(), gatewaySide, localIP(), echoPort, func(err error) { ended <- err }) {
		t.Fatal("the tunnel did not start")
	}
	if _, err := client.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(client, buf); err != nil || string(buf) != "ping" {
		t.Fatalf("echo %q, %v", buf, err)
	}
	stop()
	waitEnded(t, ended)
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := client.Read(buf); err == nil {
		t.Fatalf("the client read %q from a tunnel its agent's cancel should have ended", buf[:n])
	}
}
