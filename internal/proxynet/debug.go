package proxynet

import (
	"net/netip"
	"strings"

	"github.com/tftproject/tft/internal/httpwire"
)

// Debug header names, mirroring Luminati's (§2.3).
const (
	// TimelineHeader carries the serving exit node's identity and the retry
	// chain.
	TimelineHeader = "X-Hola-Timeline-Debug"
	// UnblockerHeader carries error detail when the proxied request failed
	// (e.g. the exit node's resolver returned NXDOMAIN).
	UnblockerHeader = "X-Hola-Unblocker-Debug"
)

// Error strings surfaced in UnblockerHeader.
const (
	// ErrDNSSuper: the super proxy's own resolution failed, so the request
	// was never forwarded — the reason the d2 gate must answer the super
	// proxy's resolver (§4.1).
	ErrDNSSuper = "dns_error super_proxy NXDOMAIN"
	// ErrDNSPeer: the exit node's resolver returned NXDOMAIN — the honest
	// outcome of the d2 probe.
	ErrDNSPeer = "dns_error peer NXDOMAIN"
	// ErrNoPeers: no exit node could be found after retries.
	ErrNoPeers = "no_peer_available"
	// ErrPeerFetch: the exit node failed to fetch the content.
	ErrPeerFetch = "peer_fetch_failed"
	// ErrPeerTransport: the exit node's fetch died to a transport-layer
	// fault (reset, stall, truncation) rather than a protocol failure.
	// Clients exclude these probes from violation denominators.
	ErrPeerTransport = "peer_transport_error"
	// ErrPeerUnhealthy: the node was skipped because its circuit breaker
	// is open (too many recent transport failures).
	ErrPeerUnhealthy = "peer_unhealthy"
)

// Attempt records one exit-node try within a request.
type Attempt struct {
	ZID string
	// Err is empty for the successful final attempt.
	Err string
}

// Debug is the parsed form of the Luminati debug headers: which node served
// the request (zID and IP), what was retried, and any terminal error.
type Debug struct {
	// ZID identifies the exit node that ultimately handled the request.
	ZID string
	// NodeIP is the exit node's address as reported by the service.
	NodeIP netip.Addr
	// Attempts lists failed tries before the final one.
	Attempts []Attempt
	// Err is the UnblockerHeader error, empty on success.
	Err string
}

// PeerNXDomain reports whether the request failed because the exit node's
// resolver honestly returned NXDOMAIN.
func (d *Debug) PeerNXDomain() bool { return d.Err == ErrDNSPeer }

// encodeTimeline renders the timeline header value.
func encodeTimeline(zid string, ip netip.Addr, attempts []Attempt) string {
	b := make([]byte, 0, 64)
	b = append(b, "v1 zid="...)
	b = append(b, zid...)
	if ip.IsValid() {
		b = append(b, " ip="...)
		b = ip.AppendTo(b)
	}
	if len(attempts) > 0 {
		b = append(b, " tried="...)
		for i, a := range attempts {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, a.ZID...)
			b = append(b, ':')
			b = append(b, a.Err...)
		}
	}
	return string(b)
}

// attachDebug stamps the debug headers on a proxy response.
func attachDebug(resp *httpwire.Response, zid string, ip netip.Addr, attempts []Attempt, errStr string) {
	resp.Header.Set(TimelineHeader, encodeTimeline(zid, ip, attempts))
	if errStr != "" {
		resp.Header.Set(UnblockerHeader, errStr)
	}
}

// ParseDebug extracts Debug from a proxy response's headers. Every string
// in it — the zID, the error, the failed attempts — is a substring of the
// response's head, and holds the whole head while it lives: a caller that
// keeps one past the response, as a crawl keeps a new node's zID in its
// dataset and seen set, keeps a copy (strings.Clone).
func ParseDebug(h *httpwire.Header) *Debug {
	d := &Debug{Err: h.Get(UnblockerHeader)}
	// Fields are single-spaced, as encodeTimeline writes them.
	for rest, more := h.Get(TimelineHeader), true; more; {
		var field string
		field, rest, more = strings.Cut(rest, " ")
		switch {
		case strings.HasPrefix(field, "zid="):
			d.ZID = field[len("zid="):]
		case strings.HasPrefix(field, "ip="):
			if ip, err := netip.ParseAddr(field[len("ip="):]); err == nil {
				d.NodeIP = ip
			}
		case strings.HasPrefix(field, "tried="):
			tried := field[len("tried="):]
			for more := true; more; {
				var t string
				t, tried, more = strings.Cut(tried, ",")
				if zid, errStr, ok := strings.Cut(t, ":"); ok {
					d.Attempts = append(d.Attempts, Attempt{ZID: zid, Err: errStr})
				}
			}
		}
	}
	return d
}
