package proxynet

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"time"
)

// This file is the real-network face of the proxy service: the same
// SuperProxy, Client, and ExitNode logic running over TCP sockets instead
// of the simnet fabric, plus the agent protocol that lets exit nodes live
// in separate processes (cmd/exitnode) and register with the super proxy
// over a persistent connection — the moral equivalent of hola_svc.exe's
// link to the Hola servers (§2.2).

// TCPDialer implements Dialer over the operating system's network stack.
type TCPDialer struct {
	// MapAddr rewrites a (dst, port) pair into the string address to dial.
	// Real deployments return "dst:port"; loopback demos remap simulated
	// addresses onto 127.0.0.0/8 listeners. Nil means "dst:port".
	MapAddr func(dst netip.Addr, port uint16) string
	// Timeout bounds connection establishment (default 5s).
	Timeout time.Duration
}

// Dial implements Dialer. The src address is ignored: real networks do not
// let applications spoof sources, and the one gate that tells callers apart
// (d2) keys on the DNS source, which dnsserver.NewUDPResolver binds.
func (d *TCPDialer) Dial(ctx context.Context, _, dst netip.Addr, port uint16) (net.Conn, error) {
	var target string
	if d.MapAddr != nil {
		target = d.MapAddr(dst, port)
	} else {
		target = netip.AddrPortFrom(dst, port).String()
	}
	nd := net.Dialer{Timeout: d.Timeout}
	if nd.Timeout == 0 {
		nd.Timeout = 5 * time.Second
	}
	return nd.DialContext(ctx, "tcp", target)
}

// Serve runs the super proxy's client-facing accept loop on a real
// listener until the listener closes.
func (sp *SuperProxy) Serve(l net.Listener) error {
	return ServeListener(l, sp.ConnHandler())
}

// ServeListener runs any simnet.ConnHandler-style handler on a real
// listener (measurement web server, landing pages, TLS sites).
func ServeListener(l net.Listener, handler func(conn net.Conn)) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		//tftlint:ignore nogo -- real-listener accept loop: handlers block on OS sockets and need a goroutine each
		go handler(conn)
	}
}
