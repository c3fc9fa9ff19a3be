package proxynet

import (
	"context"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"github.com/tftproject/tft/internal/cert"
	"github.com/tftproject/tft/internal/httpwire"
	"github.com/tftproject/tft/internal/origin"
	"github.com/tftproject/tft/internal/tlssim"
)

// tunnelWorld is a test world with one TLS site behind the exit nodes.
func tunnelWorld(t testing.TB) (*testWorld, []*cert.Certificate) {
	t.Helper()
	w := newTestWorld(t, 0)
	root := cert.NewRootCA(cert.Name{CommonName: "Site Root"}, "sr", t0.Add(-time.Hour), 1000*time.Hour)
	leaf := root.Issue(cert.Template{Subject: cert.Name{CommonName: "site.example"},
		NotBefore: t0.Add(-time.Hour), NotAfter: t0.Add(1000 * time.Hour), KeySeed: "site"})
	chain := []*cert.Certificate{leaf, root.Cert}
	w.fabric.HandleTCP(siteIP, 443, origin.TLSSite(func(string) []*cert.Certificate { return chain }))
	return w, chain
}

func (w *testWorld) connect(t *testing.T) net.Conn {
	t.Helper()
	conn, _, err := w.client.Connect(context.Background(), Options{Country: "DE", Session: "7"}, siteIP.String()+":443")
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestTunnelCloseReturnsReaderOnce: the tunnel owns a pooled reader. A
// second Close must not Put it again — two later Gets would then share one
// reader — and a Read after Close must fail without touching it.
func TestTunnelCloseReturnsReaderOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	w, _ := tunnelWorld(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	conn := w.connect(t)
	owned := conn.(*bufferedConn).br
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if conn.(*bufferedConn).br != nil {
		t.Fatal("a closed tunnel still holds its reader")
	}
	if n, err := conn.Read(make([]byte, 1)); n != 0 || err != io.ErrClosedPipe {
		t.Fatalf("Read after Close = %d, %v; want 0, io.ErrClosedPipe", n, err)
	}
	// Drain the pool (the proxy's own hops parked readers there too): the
	// tunnel's must come out exactly once.
	seen := 0
	for i := 0; i < 32; i++ {
		br := httpwire.GetReader(nil)
		defer httpwire.PutReader(br)
		if br == owned {
			seen++
		}
	}
	if seen != 1 {
		t.Fatalf("after two Closes the pool handed the tunnel's reader out %d times; want once", seen)
	}
}

// TestTunnelRoundTripReusesItsReader: with the pools warm, opening a tunnel,
// collecting a chain through it and closing it allocates its small change —
// requests, headers, pairs, the chain — and no longer the 4 KB bufio.Reader
// each tunnel used to make and drop: 5.8 KB measured, held to 6.5 KB here,
// against 10.7 KB with the per-tunnel reader (and the chain's temporary
// per-certificate encodings).
func TestTunnelRoundTripReusesItsReader(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	w, chain := tunnelWorld(t)
	trip := func() {
		conn := w.connect(t)
		got, err := tlssim.CollectChain(conn, "site.example")
		if err != nil || len(got) != len(chain) {
			t.Fatalf("chain of %d, %v", len(got), err)
		}
		conn.Close()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	trip()
	trip() // the second warm-up settles the session pin
	const trips = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < trips; i++ {
		trip()
	}
	runtime.ReadMemStats(&after)
	perTrip := (after.TotalAlloc - before.TotalAlloc) / trips
	if perTrip > 6<<10+512 {
		t.Fatalf("a tunnel round trip allocated %d bytes after warm-up; want at most 6.5 KB", perTrip)
	}
}

// TestTunnelCloseDuringRead: a tunnel is a net.Conn, so Close may arrive from
// another goroutine while a Read is parked (the origin here says nothing
// until it has a hello). Close must end that Read, and must not hand the
// reader to the pool while the Read still holds it (-race guards that side).
func TestTunnelCloseDuringRead(t *testing.T) {
	w, _ := tunnelWorld(t)
	for round := 0; round < 50; round++ {
		conn := w.connect(t)
		done := make(chan error, 1)
		go func() {
			_, err := conn.Read(make([]byte, 1))
			done <- err
		}()
		if round%2 == 0 {
			runtime.Gosched() // let the Read park first on some rounds
		}
		conn.Close()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("round %d: Read on a closed tunnel succeeded", round)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: Close left a Read parked", round)
		}
	}
}
