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

// tunnelWorld is a test world with one TLS site behind the exit nodes,
// serving its chain as the world's sites do: framed once.
func tunnelWorld(t testing.TB) (*testWorld, []*cert.Certificate) {
	t.Helper()
	w := newTestWorld(t, 0)
	root := cert.NewRootCA(cert.Name{CommonName: "Site Root"}, "sr", t0.Add(-time.Hour), 1000*time.Hour)
	leaf := root.Issue(cert.Template{Subject: cert.Name{CommonName: "site.example"},
		NotBefore: t0.Add(-time.Hour), NotAfter: t0.Add(1000 * time.Hour), KeySeed: "site"})
	chain := []*cert.Certificate{leaf, root.Cert}
	rec := tlssim.FrameChain(chain)
	w.fabric.HandleTCP(siteIP, 443, origin.FramedTLSSite(func(string) []byte { return rec }))
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

// handshake is one §6 probe on tunnelWorld: the CONNECT, the handshake
// through the tunnel, the verdict against store, the close.
func (w *testWorld) handshake(tb testing.TB, store *cert.Store) {
	tb.Helper()
	conn, _, err := w.client.Connect(context.Background(), Options{Country: "DE", Session: "7"}, siteIP.String()+":443")
	if err != nil {
		tb.Fatal(err)
	}
	got, err := tlssim.CollectChain(conn, "site.example")
	if err != nil {
		tb.Fatal(err)
	}
	if err := store.Verify("site.example", got, t0); err != nil {
		tb.Fatal(err)
	}
	conn.Close()
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
// requests, headers, connections, the chain — and no longer the 4 KB
// bufio.Reader each tunnel used to make and drop: 2.6 KB measured (2.65 KB
// while the site encoded its chain per handshake and the client decoded it
// name by name; 5.8 KB before spans and connections were recycled), held to
// 3 KB here, against 10.7 KB with the per-tunnel reader.
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
	if perTrip > 3<<10 {
		t.Fatalf("a tunnel round trip allocated %d bytes after warm-up; want at most 3 KB", perTrip)
	}
}

// TestTunnelsSpawnNoGoroutine: a CONNECT tunnel to a site registered with
// HandleTCP costs no goroutine — the site answers on its stream's readiness
// callbacks, the splice relays on the tunnel's — so across 200 sequential
// probes the goroutine count never passes its baseline, not even while a
// tunnel is open and its site waits for the hello.
func TestTunnelsSpawnNoGoroutine(t *testing.T) {
	w, chain := tunnelWorld(t)
	store := cert.NewStore(chain[len(chain)-1])
	w.handshake(t, store) // settles the session pin
	base := goroutinesAtRest()
	for i := 0; i < 200; i++ {
		conn := w.connect(t)
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("tunnel %d open: %d goroutines, baseline %d", i, n, base)
		}
		if _, err := tlssim.CollectChain(conn, "site.example"); err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("after 200 tunnels: %d goroutines, baseline %d", n, base)
	}
}

// goroutinesAtRest is the goroutine count once the goroutines earlier
// tests left behind have exited: the count has stopped falling.
func goroutinesAtRest() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestTunnelHandshakeAllocs holds one warmed §6 probe on tunnelWorld — the
// CONNECT, the handshake through the tunnel, the verdict, the close — to an
// allocation ceiling. It measured 27 when the ceiling was set; the slack is
// for Go releases, not for regressions of ours.
func TestTunnelHandshakeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	w, chain := tunnelWorld(t)
	store := cert.NewStore(chain[len(chain)-1])
	probe := func() { w.handshake(t, store) }
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 16; i++ { // settles the session pin and the pools
		probe()
	}
	const ceiling = 30
	if got := testing.AllocsPerRun(100, probe); got > ceiling {
		t.Fatalf("a tunnelled handshake allocates %.0f times, ceiling %d", got, ceiling)
	}
}

// BenchmarkTunnelHandshake is TestTunnelHandshakeAllocs's probe, for
// profiles: go test -run=NONE -bench=TunnelHandshake -benchtime=20000x
// -memprofile=mem.prof -memprofilerate=1 ./internal/proxynet.
func BenchmarkTunnelHandshake(b *testing.B) {
	w, chain := tunnelWorld(b)
	store := cert.NewStore(chain[len(chain)-1])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.handshake(b, store)
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
