package simnet

import (
	"context"
	"net"
	"net/netip"
	"testing"
	"time"
)

// returnsWithin fails the test unless fn returns within two seconds: what a
// reader does when it needs a lock the test is holding.
func returnsWithin(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("%s waits for a writer's lock", what)
	}
}

// TestNowTakesNoLock: every request reads the clock dozens of times, so the
// read may not queue behind whoever is arming a timer.
func TestNowTakesNoLock(t *testing.T) {
	c := NewVirtual(t0)
	c.Advance(time.Minute)
	c.mu.Lock()
	defer c.mu.Unlock()
	returnsWithin(t, "Virtual.Now", func() {
		if got := c.Now(); !got.Equal(t0.Add(time.Minute)) {
			t.Errorf("Now() = %v, want %v", got, t0.Add(time.Minute))
		}
	})
}

// TestLookupTakesNoRegistrationLock: once a world's registrations are
// published, Dial and ExchangeDNS reach a host and its services without the
// fabric's or the host's mutex.
func TestLookupTakesNoRegistrationLock(t *testing.T) {
	f := NewFabric()
	f.HandleTCP(hostB, 80, func(conn net.Conn) { conn.Close() })
	f.HandleDNS(hostB, func(netip.Addr, []byte) []byte { return []byte("answer") })
	if f.lookup(hostB) == nil { // the first lookup after a registration publishes the table
		t.Fatal("registered host not found")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	hst := f.hosts[hostB]
	hst.mu.Lock()
	defer hst.mu.Unlock()
	returnsWithin(t, "Fabric.Dial", func() {
		conn, err := f.Dial(context.Background(), hostA, hostB, 80)
		if err != nil {
			t.Error(err)
			return
		}
		conn.Close()
	})
	returnsWithin(t, "Fabric.ExchangeDNS", func() {
		if resp, err := f.ExchangeDNS(hostA, hostB, []byte("query")); err != nil || string(resp) != "answer" {
			t.Errorf("ExchangeDNS = %q, %v", resp, err)
		}
	})
}

// TestRegistrationAfterLookupIsSeen: a registration that follows a lookup —
// a new host, a new port on a known host, a removed listener — is what the
// next lookup finds.
func TestRegistrationAfterLookupIsSeen(t *testing.T) {
	f := NewFabric()
	closer := func(conn net.Conn) { conn.Close() }
	dial := func(dst netip.Addr, port uint16) error {
		conn, err := f.Dial(context.Background(), hostA, dst, port)
		if err == nil {
			conn.Close()
		}
		return err
	}
	f.HandleTCP(hostB, 80, closer)
	if err := dial(hostB, 80); err != nil {
		t.Fatal(err)
	}
	if err := dial(hostC, 80); err == nil {
		t.Fatal("dialed a host nobody registered")
	}
	f.HandleTCP(hostC, 80, closer)
	f.HandleTCPStream(hostB, 25, closer)
	for _, to := range []struct {
		dst  netip.Addr
		port uint16
	}{{hostC, 80}, {hostB, 25}, {hostB, 80}} {
		if err := dial(to.dst, to.port); err != nil {
			t.Fatalf("dial %v:%d after a mid-run registration: %v", to.dst, to.port, err)
		}
	}
	f.HandleTCP(hostB, 80, nil)
	if err := dial(hostB, 80); err == nil {
		t.Fatal("dialed a removed listener")
	}
	if err := dial(hostB, 25); err != nil {
		t.Fatalf("removing one port took another with it: %v", err)
	}
}

// TestNowDuringFiring: a callback reads its own event's instant, and so
// does any other goroutine for as long as that batch is firing — the clock
// publishes an instant before it fires it and not the next one until the
// batch is done.
func TestNowDuringFiring(t *testing.T) {
	c := NewVirtual(t0)
	firing := make(chan time.Time)
	checked := make(chan struct{})
	const events = 50
	for i := 1; i <= events; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		c.AfterFunc(at.Sub(t0), func() {
			if got := c.Now(); !got.Equal(at) {
				t.Errorf("Now() inside the callback for %v = %v", at, got)
			}
			firing <- at
			<-checked
		})
	}
	go func() {
		for i := 0; i < events; i++ {
			at := <-firing
			if got := c.Now(); !got.Equal(at) {
				t.Errorf("Now() from beside the batch firing at %v = %v", at, got)
			}
			checked <- struct{}{}
		}
	}()
	c.Advance(time.Hour)
	if got := c.Now(); !got.Equal(t0.Add(time.Hour)) {
		t.Fatalf("Now() after Advance = %v, want %v", got, t0.Add(time.Hour))
	}
}

// TestAdvanceAllocatesNothing: a monitoring day crosses hundreds of
// thousands of instants; publishing one for lock-free readers boxes nothing.
func TestAdvanceAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	c := NewVirtual(t0)
	tick := func() {}
	rearm := func() {
		for i := 1; i <= 1000; i++ {
			c.AfterFunc(time.Duration(i)*time.Millisecond, tick)
		}
	}
	rearm()
	c.Advance(time.Second) // warm the event free list and the batch buffer
	if n := testing.AllocsPerRun(5, func() {
		rearm()
		c.Advance(time.Second)
	}); n != 0 {
		t.Fatalf("crossing 1000 instants allocates %.0f times", n)
	}
}
