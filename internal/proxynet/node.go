// Package proxynet implements the P2P proxy service the measurements ride
// on — the stand-in for Luminati/Hola (§2.2–2.3): a super proxy speaking
// the HTTP proxy protocol (absolute-form GET on port 80, CONNECT restricted
// to port 443), exit nodes that perform the actual fetches from inside edge
// networks, persistent zIDs, country- and session-based exit-node selection
// with a 60-second session TTL, automatic retry across up to five exit
// nodes, and X-Hola-* debug headers reporting what happened.
package proxynet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync/atomic"
	"time"

	"github.com/tftproject/tft/internal/dnsserver"
	"github.com/tftproject/tft/internal/dnswire"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/httpwire"
	"github.com/tftproject/tft/internal/middlebox"
	"github.com/tftproject/tft/internal/simnet"
	"github.com/tftproject/tft/internal/tlssim"
	"github.com/tftproject/tft/internal/trace"
)

// Dialer opens streams between simulated (or real) hosts. *simnet.Fabric
// implements it; the real-TCP mode wraps net.Dialer.
type Dialer interface {
	Dial(ctx context.Context, src, dst netip.Addr, port uint16) (net.Conn, error)
}

// ExitNode is one Hola peer: an end-user machine whose connectivity — DNS
// resolver, on-path middleboxes, locally installed software — is exactly
// what the experiments measure.
type ExitNode struct {
	// ZID is the persistent identifier Luminati exposes in debug headers;
	// it survives IP changes (§2.3).
	ZID string
	// Addr is the node's current IP address.
	Addr netip.Addr
	// ASN and Country locate the node (ground truth; the measurement
	// pipeline re-derives them from Addr via the geo registry).
	ASN     geo.ASN
	Country geo.CountryCode
	// Resolver is the DNS service the node is configured with.
	Resolver *dnsserver.Resolver
	// Path holds the node's violators.
	Path *middlebox.Path
	// Net carries the node's traffic.
	Net Dialer
	// Clock is the timebase of the per-attempt deadline budgets every
	// outbound connection of the node carries (fetchBudget, tunnelBudget),
	// so a faulted or stalled origin cannot wedge an attempt forever. It
	// governs fabric streams only; a real socket, or a nil Clock, measures
	// the budgets on the wall clock (deadlineClock). A simulated world
	// gives every node its clock (population's Materialize), so only
	// real-socket nodes such as cmd/exitnode leave it nil. Under the virtual
	// clock — which never advances mid-crawl — the budgets are inert and
	// the stall fault's own deadline collapse does the bounding; on real
	// networks they are live timers.
	Clock simnet.Clock
	// Tracer, when non-nil, records a span per node-side operation (DNS
	// resolution, origin fetch, tunnel relay), parented under the span
	// context carried by the request's context.
	Tracer *trace.Tracer

	offline atomic.Bool
}

// Per-attempt deadline budgets on the node's outbound legs.
const (
	// fetchBudget bounds one proxied GET: dial through response read.
	fetchBudget = 30 * time.Second
	// tunnelBudget bounds a CONNECT tunnel's server leg.
	tunnelBudget = 5 * time.Minute
)

// SetOnline flips the node's availability; offline nodes make Luminati
// retry with another peer.
func (n *ExitNode) SetOnline(up bool) { n.offline.Store(!up) }

// Online reports availability.
func (n *ExitNode) Online() bool { return !n.offline.Load() }

// ResolveA resolves name through the node's resolver and path interceptors,
// returning the answer address (when any) and the response code the node
// observed — NXDOMAIN here is the honest outcome of the d2 probe.
func (n *ExitNode) ResolveA(ctx context.Context, name string) (netip.Addr, dnswire.RCode, error) {
	span := n.Tracer.StartChild(trace.FromContext(ctx), "node.resolve", trace.KindDNS,
		trace.Str("zid", n.ZID), trace.Str("name", name))
	defer span.End()
	ans, err := n.Resolver.Lookup(n.Addr, name, dnswire.TypeA)
	if err != nil {
		span.SetError(err.Error())
		return netip.Addr{}, dnswire.RCodeServFail, err
	}
	if n.Path != nil {
		ans = n.Path.ApplyDNS(ans)
	}
	span.SetAttrs(trace.Int("rcode", int64(ans.RCode)))
	return ans.A, ans.RCode, nil
}

// FetchHTTP performs the node's part of a proxied GET: connect to ip:port,
// request path with the given Host header, and return the response after
// the node's HTTP interceptors have had their way with it. Monitors on the
// path observe the fetch, failed or not.
func (n *ExitNode) FetchHTTP(ctx context.Context, host string, port uint16, path string, ip netip.Addr) (*httpwire.Response, error) {
	span := n.Tracer.StartChild(trace.FromContext(ctx), "node.fetch", trace.KindFetch,
		trace.Str("zid", n.ZID), trace.Str("host", host), trace.Str("path", path))
	defer span.End()
	src := n.Addr
	if n.Path != nil && n.Path.VPNEgress.IsValid() {
		src = n.Path.VPNEgress
	}
	resp, err := n.fetch(ctx, src, host, port, path, ip)
	if n.Path != nil {
		n.Path.Observe(host, path)
	}
	if err != nil {
		span.SetError(err.Error())
		return nil, err
	}
	if n.Path != nil {
		resp = n.Path.ApplyHTTP(host, path, resp)
	}
	span.SetAttrs(trace.Int("status", int64(resp.StatusCode)))
	return resp, nil
}

// fetch is the node's own request to the origin.
func (n *ExitNode) fetch(ctx context.Context, src netip.Addr, host string, port uint16, path string, ip netip.Addr) (*httpwire.Response, error) {
	conn, err := n.Net.Dial(ctx, src, ip, port)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(deadlineClock(conn, n.Clock).Now().Add(fetchBudget))
	// Clearing on the way out stops the deadline timer rather than leaving
	// it to fire against a closed stream.
	defer conn.SetDeadline(time.Time{})
	req := httpwire.NewRequest("GET", path)
	req.Header.Set("Host", host)
	return httpwire.Exchange(conn, req)
}

// errPortBlocked reports an ISP-filtered outbound port. A sentinel rather
// than a formatted error: Tunnel is a hot path, and the tunnel span already
// records the port as an attribute.
var errPortBlocked = errors.New("proxynet: outbound port blocked by the node's ISP")

// Tunnel bridges client to ip:port — the CONNECT data phase. The relay
// passes bytes through transparently unless the node's path rewrites them
// (see rewrites): then it is the same relay, rewriting chunks in flight.
//
// The relay runs on the event core (see splice) whatever the legs are: a
// leg that is not a fabric stream, such as a real socket, enters it through
// simnet.AsStream. Once the server leg is dialed, Tunnel returns true with
// the tunnel still live and owning client; done fires once it finishes,
// with the first non-benign error the relay hit, or, for a tunnel that
// ended cleanly, what its rewrites left behind: a TLS interceptor's
// handshake cut short or malformed. A tunnel refused before that (a blocked
// port, a failed dial) reports to done and returns false, leaving client to
// the caller. done may be nil.
//
//tftlint:hotpath
func (n *ExitNode) Tunnel(ctx context.Context, client net.Conn, ip netip.Addr, port uint16, done func(error)) bool {
	span := n.Tracer.StartChild(trace.FromContext(ctx), "node.tunnel", trace.KindTunnel,
		trace.Str("zid", n.ZID), trace.Int("port", int64(port)))
	if n.Path.PortBlocked(port) {
		endTunnel(span, done, errPortBlocked)
		return false
	}
	server, err := n.Net.Dial(ctx, n.Addr, ip, port)
	if err != nil {
		endTunnel(span, done, err)
		return false
	}
	server.SetDeadline(deadlineClock(server, n.Clock).Now().Add(tunnelBudget))
	c2s, s2c, end := n.rewrites(port)
	finish := func(err error) {
		if err == nil && end != nil {
			err = end()
		}
		// The budget covers the relay only; clearing stops the timer.
		server.SetDeadline(time.Time{})
		endTunnel(span, done, err)
	}
	startSplice(simnet.AsStream(client, server), simnet.AsStream(server, client), c2s, s2c, finish)
	return true
}

// rewrites picks the chunk rewrites of a tunnel to port: the path's
// STARTTLS strippers rewrite the server's chunks on the mail ports;
// otherwise its TLS interceptors rewrite the handshake (tlssim.Intercept)
// on every port but the mail ports. end, when non-nil, reports what the
// handshake left behind.
func (n *ExitNode) rewrites(port uint16) (c2s, s2c func([]byte) []byte, end func() error) {
	if stream := n.Path.StreamFor(port); len(stream) > 0 {
		return nil, func(chunk []byte) []byte {
			for _, st := range stream {
				chunk = st.RewriteS2C(chunk)
			}
			return chunk
		}, nil
	}
	if n.Path != nil && len(n.Path.TLS) > 0 && !middlebox.MailPort(port) {
		return tlssim.Intercept(n.Path.ApplyTLS)
	}
	return nil, nil, nil
}

// endTunnel closes a tunnel's span, with err when it failed, and reports
// to done (which may be nil).
func endTunnel(span trace.Span, done func(error), err error) {
	if err != nil {
		span.SetError(err.Error())
	}
	span.End()
	if done != nil {
		done(err)
	}
}

// String identifies the node in logs.
func (n *ExitNode) String() string {
	return fmt.Sprintf("%s (%s, AS%d, %s)", n.ZID, n.Addr, n.ASN, n.Country)
}
