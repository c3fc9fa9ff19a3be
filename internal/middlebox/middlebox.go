// Package middlebox implements the parties that violate end-to-end
// connectivity in the paper, the violators an exit node's traffic flows
// through: NXDOMAIN hijackers (§4), HTML injectors and image transcoders
// (§5), TLS certificate replacers (§6), content monitors (§7) and STARTTLS
// strippers (§3.4).
//
// An exit node owns a Path: one field per kind of violator, each list
// ordered end-host software first (malware, AV products), then the LAN,
// then ISP equipment. The proxynet exit-node agent consults the Path around
// every network operation; violators never see each other, only the
// traffic. Only HTTP rewriting, which four types do, is an interface.
package middlebox

import (
	"math/rand/v2"
	"net/netip"

	"github.com/tftproject/tft/internal/cert"
	"github.com/tftproject/tft/internal/dnswire"
	"github.com/tftproject/tft/internal/httpwire"
)

// HTTPInterceptor rewrites HTTP responses in flight (§5).
type HTTPInterceptor interface {
	// InterceptHTTP may rewrite resp (returning it or a replacement). host
	// and path identify the fetched URL. It may point resp.Body at new
	// bytes but must never store into the bytes it was handed: they can be
	// the origin's one shared copy of a §5.1 object.
	InterceptHTTP(host, path string, resp *httpwire.Response) *httpwire.Response
}

// Path is one exit node's violators, one field per kind; each list applies
// in slice order (end-host software before ISP equipment).
type Path struct {
	// NXLanding, when valid, is the landing page a DNS hijacker on the path
	// sends NXDOMAIN answers to: a transparent DNS proxy in the ISP, or
	// resolver-tampering software on the host — the cases where the node
	// uses Google DNS and still receives a hijacked answer (§4.3.3).
	NXLanding netip.Addr
	HTTP      []HTTPInterceptor
	// TLS replaces certificate chains in CONNECT tunnels (§6).
	TLS []*CertMITM
	// Stream rewrites the server's bytes of tunnels to the mail ports.
	Stream   []STARTTLSStripper
	Monitors []*Watcher
	// BlockedPorts lists destination ports the node's ISP refuses outright
	// (residential port-25 blocking).
	BlockedPorts []uint16
	// VPNEgress, when valid, replaces the source address of the node's own
	// origin fetches — the node browses through a VPN (AnchorFree, §7.2.1),
	// so the origin sees the VPN's address instead of the node's.
	VPNEgress netip.Addr
}

// ApplyDNS returns what the node learns in place of ans, its resolver's
// answer: the landing page for an NXDOMAIN when the path hijacks, else ans.
func (p *Path) ApplyDNS(ans dnswire.Answer) dnswire.Answer {
	if !p.NXLanding.IsValid() || ans.RCode != dnswire.RCodeNXDomain {
		return ans
	}
	return dnswire.Answer{RCode: dnswire.RCodeSuccess, A: p.NXLanding, TTL: 60}
}

// ApplyHTTP runs the HTTP interceptors in order.
func (p *Path) ApplyHTTP(host, path string, resp *httpwire.Response) *httpwire.Response {
	for _, ic := range p.HTTP {
		resp = ic.InterceptHTTP(host, path, resp)
	}
	return resp
}

// ApplyTLS runs the TLS interceptors in order; the first one that replaces
// the chain wins (stacked SSL proxies do not compose in practice). It
// returns nil when none does.
func (p *Path) ApplyTLS(serverName string, chain []*cert.Certificate) []*cert.Certificate {
	for _, m := range p.TLS {
		if replaced := m.InterceptChain(serverName, chain); replaced != nil {
			return replaced
		}
	}
	return nil
}

// Observe shows the monitors the node's fetch of http://host+path, once it
// has happened, innermost (last) first.
func (p *Path) Observe(host, path string) {
	for i := len(p.Monitors) - 1; i >= 0; i-- {
		p.Monitors[i].Observe(host, path)
	}
}

// PortBlocked reports whether the node's ISP refuses connections to port.
func (p *Path) PortBlocked(port uint16) bool {
	if p == nil {
		return false
	}
	for _, b := range p.BlockedPorts {
		if b == port {
			return true
		}
	}
	return false
}

// StreamFor returns the stream rewriters engaging for tunnels to port:
// the path's STARTTLS strippers on the mail ports, none elsewhere.
func (p *Path) StreamFor(port uint16) []STARTTLSStripper {
	if p == nil || !MailPort(port) {
		return nil
	}
	return p.Stream
}

// decide returns a deterministic pseudo-random bool with probability prob,
// keyed by a label so independent decisions are uncorrelated.
func decide(rng *rand.Rand, prob float64) bool {
	if prob >= 1 {
		return true
	}
	if prob <= 0 {
		return false
	}
	return rng.Float64() < prob
}
