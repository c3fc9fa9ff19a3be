package main

import (
	"context"
	"net"
	"net/netip"
	"sync/atomic"
	"testing"

	"github.com/tftproject/tft/internal/proxynet"
)

// TestEveryTunnelClosedOnce runs the example with its client dialing through
// a counting wrapper: a CONNECT tunnel's Close is what returns its pooled
// reader, so each tunnel the example opens must be closed, and only once.
func TestEveryTunnelClosedOnce(t *testing.T) {
	var d *countingDialer
	wrapNet = func(inner proxynet.Dialer) proxynet.Dialer {
		d = &countingDialer{Dialer: inner}
		return d
	}
	defer func() { wrapNet = func(d proxynet.Dialer) proxynet.Dialer { return d } }()
	main()
	dials, closes, repeats := d.dials.Load(), d.closes.Load(), d.repeats.Load()
	if dials == 0 || closes != dials || repeats != 0 {
		t.Fatalf("%d tunnels dialed, %d closed, %d closed more than once", dials, closes, repeats)
	}
}

type countingDialer struct {
	proxynet.Dialer
	dials, closes, repeats atomic.Int64
}

func (d *countingDialer) Dial(ctx context.Context, src, dst netip.Addr, port uint16) (net.Conn, error) {
	conn, err := d.Dialer.Dial(ctx, src, dst, port)
	if err != nil {
		return nil, err
	}
	d.dials.Add(1)
	return &countingConn{Conn: conn, d: d}, nil
}

type countingConn struct {
	net.Conn
	d      *countingDialer
	closed atomic.Bool
}

func (c *countingConn) Close() error {
	if c.closed.Swap(true) {
		c.d.repeats.Add(1)
	} else {
		c.d.closes.Add(1)
	}
	return c.Conn.Close()
}
