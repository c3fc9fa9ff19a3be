package simnet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// echoServer registers a request/response echo on (addr, port): read
// everything until EOF or error, write it back, close.
func echoServer(f *Fabric, port uint16, size int) {
	f.HandleTCP(hostB, port, func(conn net.Conn) {
		defer conn.Close()
		buf := make([]byte, size)
		n, _ := io.ReadFull(conn, buf)
		conn.Write(buf[:n])
	})
}

func TestInjectResetFailsBothDirections(t *testing.T) {
	f := NewFabric()
	echoServer(f, 80, 4)
	conn, err := f.Dial(context.Background(), hostA, hostB, 80)
	if err != nil {
		t.Fatal(err)
	}
	conn.(*Stream).InjectReset()
	if _, err := conn.Write([]byte("ping")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("write err = %v, want ErrInjectedReset", err)
	}
	if _, err := conn.Read(make([]byte, 4)); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("read err = %v, want ErrInjectedReset", err)
	}
}

func TestInjectResetDiscardsBufferedData(t *testing.T) {
	a, b := Pipe(0)
	if _, err := b.Write([]byte("buffered")); err != nil {
		t.Fatal(err)
	}
	a.InjectReset()
	if _, err := a.Read(make([]byte, 8)); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("read err = %v, want ErrInjectedReset (reset discards buffered data)", err)
	}
}

func TestInjectStallCollapsesToDeadline(t *testing.T) {
	a, b := Pipe(0)
	a.InjectStall(5)
	if _, err := b.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	n, err := a.Read(buf)
	if err != nil || n != 5 {
		t.Fatalf("first read = (%d, %v), want (5, nil)", n, err)
	}
	if _, err := a.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled read err = %v, want os.ErrDeadlineExceeded", err)
	}
	// TryRead observes the same collapsed deadline, so splices cannot park.
	if _, err := a.TryRead(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled TryRead err = %v, want os.ErrDeadlineExceeded", err)
	}
}

func TestInjectTruncateDeliversPrefixThenEOF(t *testing.T) {
	a, b := Pipe(0)
	a.InjectTruncate(4)
	if _, err := b.Write([]byte("abcdefgh")); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(a)
	if err != nil {
		t.Fatalf("ReadAll err = %v, want clean EOF", err)
	}
	if string(got) != "abcd" {
		t.Fatalf("got %q, want %q", got, "abcd")
	}
}

func TestInjectTrickleCapsReads(t *testing.T) {
	a, b := Pipe(0)
	a.InjectTrickle(3)
	if _, err := b.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	b.CloseWrite()
	var got []byte
	buf := make([]byte, 64)
	reads := 0
	for {
		n, err := a.Read(buf)
		got = append(got, buf[:n]...)
		if n > 3 {
			t.Fatalf("read returned %d bytes, trickle cap is 3", n)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		reads++
	}
	if string(got) != "0123456789" || reads < 3 {
		t.Fatalf("got %q in %d reads, want full payload in >=3 capped reads", got, reads)
	}
}

func TestInjectCorruptMangledStride(t *testing.T) {
	a, b := Pipe(0)
	a.InjectCorrupt(4) // every 4th byte: indexes 3, 7, ...
	payload := []byte("aaaaaaaa")
	if _, err := b.Write(payload); err != nil {
		t.Fatal(err)
	}
	b.CloseWrite()
	got, err := io.ReadAll(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("aaa" + string(rune('a'^corruptMask)) + "aaa" + string(rune('a'^corruptMask)))
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestInjectStallWakesParkedReader(t *testing.T) {
	a, _ := Pipe(0)
	done := make(chan error, 1)
	go func() {
		_, err := a.Read(make([]byte, 1))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the reader park
	a.InjectStall(0)
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("woken read err = %v, want os.ErrDeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked reader never woke after injection")
	}
}

func TestFaultPlaneDeterministicSchedule(t *testing.T) {
	profile, ok := ProfileByName("lossy-links")
	if !ok {
		t.Fatal("lossy-links profile missing")
	}
	// The schedule is the ordered sequence of injected kinds as OnInject
	// reports them — stricter than per-kind totals.
	run := func() []string {
		f := NewFabric()
		f.Faults = NewFaultPlane(profile, 42, nil)
		var kinds []string
		f.Faults.OnInject(func(kind string) { kinds = append(kinds, kind) })
		echoServer(f, 80, 4)
		for i := 0; i < 2000; i++ {
			conn, err := f.Dial(context.Background(), hostA, hostB, 80)
			if err != nil {
				t.Fatal(err)
			}
			conn.Write([]byte("ping"))
			io.ReadAll(conn)
			conn.Close()
		}
		return kinds
	}
	k1, k2 := run(), run()
	if len(k1) == 0 {
		t.Fatal("plane injected nothing over 2000 dials")
	}
	if !slices.Equal(k1, k2) {
		t.Fatalf("fault schedule not deterministic: run1 %d faults %v, run2 %d faults %v", len(k1), k1, len(k2), k2)
	}
}

func TestFaultPlanePortFilter(t *testing.T) {
	profile, ok := ProfileByName("flaky-exits")
	if !ok {
		t.Fatal("flaky-exits profile missing")
	}
	f := NewFabric()
	f.Faults = NewFaultPlane(profile, 7, nil)
	var injected atomic.Int64
	f.Faults.OnInject(func(string) { injected.Add(1) })
	echoServer(f, 9999, 4)
	for i := 0; i < 500; i++ {
		conn, err := f.Dial(context.Background(), hostA, hostB, 9999)
		if err != nil {
			t.Fatal(err)
		}
		conn.Write([]byte("ping"))
		io.ReadAll(conn)
		conn.Close()
	}
	if got := injected.Load(); got != 0 {
		t.Fatalf("injected %d faults on a port outside the profile's filter", got)
	}
}

func TestFaultPlaneOnInjectHook(t *testing.T) {
	profile := FaultProfile{
		Name:  "test-hook",
		Specs: []FaultSpec{{Kind: FaultTruncate, Prob: 1.0, AfterBytes: 1}},
	}
	f := NewFabric()
	f.Faults = NewFaultPlane(profile, 1, nil)
	var kinds []string
	f.Faults.OnInject(func(kind string) { kinds = append(kinds, kind) })
	echoServer(f, 80, 4)
	conn, err := f.Dial(context.Background(), hostA, hostB, 80)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if len(kinds) != 1 || kinds[0] != "truncate" {
		t.Fatalf("hook saw %v, want [truncate]", kinds)
	}
}

func TestProfileNamesResolvable(t *testing.T) {
	names := ProfileNames()
	if len(names) == 0 {
		t.Fatal("no named profiles")
	}
	for _, name := range names {
		if _, ok := ProfileByName(name); !ok {
			t.Fatalf("ProfileByName(%q) failed for a listed name", name)
		}
	}
	if _, ok := ProfileByName("no-such-profile"); ok {
		t.Fatal("ProfileByName accepted an unknown name")
	}
}
