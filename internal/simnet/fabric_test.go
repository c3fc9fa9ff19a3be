package simnet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/netip"
	"testing"
	"unsafe"
)

var (
	hostA = netip.MustParseAddr("10.0.0.1")
	hostB = netip.MustParseAddr("10.0.0.2")
	hostC = netip.MustParseAddr("10.0.0.3")
)

func TestDialEcho(t *testing.T) {
	f := NewFabric()
	msg := []byte("hello through the fabric")
	// Request/response handler: reads the full request, echoes it, closes.
	// This is the HandleTCP contract — it runs inline on the dialer's
	// goroutine the moment the dialer blocks on ReadFull below.
	f.HandleTCP(hostB, 80, func(conn net.Conn) {
		defer conn.Close()
		buf := make([]byte, len(msg))
		if _, err := io.ReadFull(conn, buf); err != nil {
			t.Error(err)
			return
		}
		conn.Write(buf)
	})
	conn, err := f.Dial(context.Background(), hostA, hostB, 80)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("echo = %q, want %q", buf, msg)
	}
}

func TestDialUnknownHost(t *testing.T) {
	f := NewFabric()
	_, err := f.Dial(context.Background(), hostA, hostB, 80)
	if !errors.Is(err, ErrHostUnreachable) {
		t.Fatalf("err = %v, want ErrHostUnreachable", err)
	}
}

func TestDialClosedPort(t *testing.T) {
	f := NewFabric()
	f.HandleTCP(hostB, 80, func(conn net.Conn) { conn.Close() })
	_, err := f.Dial(context.Background(), hostA, hostB, 443)
	if !errors.Is(err, ErrConnRefused) {
		t.Fatalf("err = %v, want ErrConnRefused", err)
	}
}

func TestServerSeesClientAddress(t *testing.T) {
	f := NewFabric()
	got := make(chan netip.Addr, 1)
	f.HandleTCP(hostB, 80, func(conn net.Conn) {
		defer conn.Close()
		ip, ok := RemoteIP(conn)
		if !ok {
			t.Error("RemoteIP failed")
		}
		got <- ip
	})
	conn, err := f.Dial(context.Background(), hostC, hostB, 80)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Block on a read to pump the handler task; it closes the conn, so the
	// read returns EOF once the handler has reported the peer address.
	var b [1]byte
	if _, err := conn.Read(b[:]); err != io.EOF {
		t.Fatalf("read = %v, want EOF", err)
	}
	if ip := <-got; ip != hostC {
		t.Fatalf("server saw %v, want %v", ip, hostC)
	}
}

func TestClientSeesServerAddress(t *testing.T) {
	f := NewFabric()
	f.HandleTCP(hostB, 8080, func(conn net.Conn) { conn.Close() })
	conn, err := f.Dial(context.Background(), hostA, hostB, 8080)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ip, ok := RemoteIP(conn)
	if !ok || ip != hostB {
		t.Fatalf("client saw remote %v (ok=%v), want %v", ip, ok, hostB)
	}
}

func TestExchangeDNS(t *testing.T) {
	f := NewFabric()
	var sawSrc netip.Addr
	f.HandleDNS(hostB, func(src netip.Addr, q []byte) []byte {
		sawSrc = src
		return append([]byte("re:"), q...)
	})
	resp, err := f.ExchangeDNS(hostA, hostB, []byte("query"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "re:query" {
		t.Fatalf("resp = %q", resp)
	}
	if sawSrc != hostA {
		t.Fatalf("server saw src %v, want %v", sawSrc, hostA)
	}
}

func TestExchangeDNSNoService(t *testing.T) {
	f := NewFabric()
	f.HandleTCP(hostB, 80, func(conn net.Conn) { conn.Close() })
	_, err := f.ExchangeDNS(hostA, hostB, []byte("q"))
	if !errors.Is(err, ErrNoDNSService) {
		t.Fatalf("err = %v, want ErrNoDNSService", err)
	}
}

func TestExchangeDNSUnknownHost(t *testing.T) {
	f := NewFabric()
	_, err := f.ExchangeDNS(hostA, hostC, []byte("q"))
	if !errors.Is(err, ErrHostUnreachable) {
		t.Fatalf("err = %v, want ErrHostUnreachable", err)
	}
}

func TestUnregisterTCP(t *testing.T) {
	f := NewFabric()
	f.HandleTCP(hostB, 80, func(conn net.Conn) { conn.Close() })
	f.HandleTCP(hostB, 80, nil)
	if _, err := f.Dial(context.Background(), hostA, hostB, 80); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("err = %v, want ErrConnRefused after unregister", err)
	}
}

func TestDialCancelledContext(t *testing.T) {
	f := NewFabric()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.Dial(ctx, hostA, hostB, 80); err == nil {
		t.Fatal("Dial with cancelled context succeeded")
	}
}

func TestSubRandIndependence(t *testing.T) {
	a1 := SubRand(42, "population")
	a2 := SubRand(42, "population")
	b := SubRand(42, "crawler")
	for i := 0; i < 100; i++ {
		if a1.Uint64() != a2.Uint64() {
			t.Fatal("same label+seed diverged")
		}
	}
	same := true
	x := SubRand(42, "population")
	for i := 0; i < 10; i++ {
		if x.Uint64() != b.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different labels produced identical streams")
	}
}

// TestFabricReadMostlyFieldsApartFromTasks: what every Dial and ExchangeDNS
// reads (Faults, frozen) lies at least a cache line from the run queue's
// lock, which every dial and pump writes, so the readers share no line with
// the writers.
func TestFabricReadMostlyFieldsApartFromTasks(t *testing.T) {
	var f Fabric
	lock := unsafe.Offsetof(f.tasks) + unsafe.Offsetof(f.tasks.mu)
	for _, field := range []struct {
		name      string
		off, size uintptr
	}{
		{"Faults", unsafe.Offsetof(f.Faults), unsafe.Sizeof(f.Faults)},
		{"frozen", unsafe.Offsetof(f.frozen), unsafe.Sizeof(f.frozen)},
	} {
		if end := field.off + field.size; end > lock || lock-end < 64 {
			t.Errorf("Fabric.%s ends at offset %d, %d bytes below tasks.mu at %d; want at least 64",
				field.name, end, int(lock)-int(end), lock)
		}
	}
}
