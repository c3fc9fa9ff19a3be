package simnet

import (
	"context"
	"io"
	"net"
	"net/netip"
	"testing"
)

var bg = context.Background()

func mustParse(s string) netip.Addr { return netip.MustParseAddr(s) }

// benchStream measures one-directional throughput over a Pipe: a
// writer pushes b.N writes of size bytes while a drain goroutine consumes.
// The check gate's smoke run selects the benchmarks below by name
// (-bench=Pipe). TestPipeNetPipeParity is the semantic reference against
// net.Pipe.
func benchStream(b *testing.B, size int) {
	w, r := Pipe(0)
	defer w.Close()
	defer r.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		io.Copy(io.Discard, r)
	}()
	buf := make([]byte, size)
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Write(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	w.Close()
	<-done
}

func BenchmarkPipeWrite1B(b *testing.B)   { benchStream(b, 1) }
func BenchmarkPipeWrite1KB(b *testing.B)  { benchStream(b, 1<<10) }
func BenchmarkPipeWrite64KB(b *testing.B) { benchStream(b, 64<<10) }

// BenchmarkPipeDialRoundTrip measures a full fabric dial + 1KB echo —
// the per-connection cost every simulated probe pays three times.
func BenchmarkPipeDialRoundTrip(b *testing.B) {
	f := NewFabric()
	srv := mustParse("10.9.9.9")
	cli := mustParse("10.9.9.1")
	f.HandleTCP(srv, 80, func(c net.Conn) {
		defer c.Close()
		buf := make([]byte, 1<<10)
		if _, err := io.ReadFull(c, buf); err == nil {
			c.Write(buf)
		}
	})
	payload := make([]byte, 1<<10)
	buf := make([]byte, 1<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := f.Dial(bg, cli, srv, 80)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := conn.Write(payload); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(conn, buf); err != nil {
			b.Fatal(err)
		}
		conn.Close()
	}
}
