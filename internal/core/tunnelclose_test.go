package core

import (
	"context"
	"net"
	"net/netip"
	"sync/atomic"
	"testing"

	"github.com/tftproject/tft/internal/proxynet"
)

// closesOnce returns a copy of client whose every dialed connection counts
// its Close calls, and fails t at cleanup unless each was closed exactly
// once. A CONNECT tunnel's Close is what returns its pooled reader, so a
// driver that drops a tunnel leaks the reader to the collector and one that
// closes it twice must find the second call harmless — this holds drivers to
// the first and proxynet's own tests hold the tunnel to the second.
func closesOnce(t *testing.T, client *proxynet.Client) *proxynet.Client {
	t.Helper()
	counted := *client
	d := &closeCountingDialer{Dialer: client.Net}
	counted.Net = d
	t.Cleanup(func() {
		dials, closes, repeats := d.dials.Load(), d.closes.Load(), d.repeats.Load()
		if dials == 0 {
			t.Error("the experiment dialed nothing through the counted client")
		}
		if closes != dials || repeats != 0 {
			t.Errorf("%d connections dialed, %d closed, %d closed more than once", dials, closes, repeats)
		}
	})
	return &counted
}

type closeCountingDialer struct {
	proxynet.Dialer
	dials, closes, repeats atomic.Int64
}

func (d *closeCountingDialer) Dial(ctx context.Context, src, dst netip.Addr, port uint16) (net.Conn, error) {
	conn, err := d.Dialer.Dial(ctx, src, dst, port)
	if err != nil {
		return nil, err
	}
	d.dials.Add(1)
	return &closeCountingConn{Conn: conn, d: d}, nil
}

type closeCountingConn struct {
	net.Conn
	d      *closeCountingDialer
	closed atomic.Bool
}

func (c *closeCountingConn) Close() error {
	if c.closed.Swap(true) {
		c.d.repeats.Add(1)
	} else {
		c.d.closes.Add(1)
	}
	return c.Conn.Close()
}
