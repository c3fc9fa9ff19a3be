// Package middlebox implements the parties that violate end-to-end
// connectivity in the paper, as composable interceptors an exit node's
// traffic flows through: NXDOMAIN hijackers (§4), HTML injectors and image
// transcoders (§5), TLS certificate replacers (§6), and content monitors
// (§7).
//
// An exit node owns a Path — an ordered interceptor stack modelling
// end-host software first (malware, AV products), then the LAN, then ISP
// equipment. The proxynet exit-node agent consults the Path around every
// network operation; interceptors never see each other, only the traffic.
package middlebox

import (
	"math/rand/v2"
	"net/netip"
	"sync"
	"time"

	"github.com/tftproject/tft/internal/cert"
	"github.com/tftproject/tft/internal/dnswire"
	"github.com/tftproject/tft/internal/httpwire"
)

// DNSInterceptor rewrites DNS answers on the node's path — a transparent
// DNS proxy in the ISP or resolver-tampering software on the host (§4.3.3).
type DNSInterceptor interface {
	// InterceptDNS returns what the node learns in place of ans, the
	// resolver's answer for the queried name: ans itself, or a rewrite.
	InterceptDNS(name string, ans dnswire.Answer) dnswire.Answer
}

// HTTPInterceptor rewrites HTTP responses in flight (§5).
type HTTPInterceptor interface {
	// InterceptHTTP may rewrite resp (returning it or a replacement). host
	// and path identify the fetched URL. It may point resp.Body at new
	// bytes but must never store into the bytes it was handed: they can be
	// the origin's one shared copy of a §5.1 object.
	InterceptHTTP(host, path string, resp *httpwire.Response) *httpwire.Response
}

// TLSInterceptor replaces certificate chains in CONNECT tunnels (§6).
// Returning nil leaves the original chain untouched (selective MITM).
type TLSInterceptor interface {
	InterceptChain(serverName string, chain []*cert.Certificate) []*cert.Certificate
}

// Env gives monitors a deterministic random stream and the ability to issue
// their own HTTP fetches.
type Env struct {
	// Rand is the node's own stream; randMu serialises the draws of
	// concurrent fetches through the node.
	Rand   *rand.Rand
	randMu sync.Mutex
	// Refetch issues a monitoring fetch of http://host+path from src after
	// delay. A negative delay models a monitor that raced ahead of the
	// user's held request (Bluecoat, §7.2.1): the fetch happens now but the
	// origin is asked to log it backdated. See origin.SkewHeader.
	Refetch func(src netip.Addr, host, path string, delay time.Duration)
}

// Monitor observes the node's HTTP requests and may duplicate them (§7).
type Monitor interface {
	// Observe is called when the node fetches http://host+path. proceed
	// performs the node's own fetch and must be called exactly once.
	Observe(env *Env, host, path string, proceed func())
}

// StreamInterceptor rewrites raw tunnel bytes — middleboxes that operate
// below any protocol this repository parses, like the STARTTLS strippers
// the §3.4 SMTP extension hunts for. Only the server→client direction is
// rewritten (capability advertisements flow that way).
type StreamInterceptor interface {
	// AppliesTo reports whether the interceptor engages for tunnels to the
	// given destination port.
	AppliesTo(port uint16) bool
	// RewriteS2C rewrites one server→client chunk.
	RewriteS2C(chunk []byte) []byte
}

// Path is one exit node's interceptor stack, applied in slice order
// (end-host software before ISP equipment).
type Path struct {
	DNS      []DNSInterceptor
	HTTP     []HTTPInterceptor
	TLS      []TLSInterceptor
	Stream   []StreamInterceptor
	Monitors []Monitor
	// BlockedPorts lists destination ports the node's ISP refuses outright
	// (residential port-25 blocking).
	BlockedPorts []uint16
	// VPNEgress, when valid, replaces the source address of the node's own
	// origin fetches — the node browses through a VPN (AnchorFree, §7.2.1),
	// so the origin sees the VPN's address instead of the node's.
	VPNEgress netip.Addr
}

// ApplyDNS runs the DNS interceptors in order.
func (p *Path) ApplyDNS(name string, ans dnswire.Answer) dnswire.Answer {
	for _, ic := range p.DNS {
		ans = ic.InterceptDNS(name, ans)
	}
	return ans
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
	for _, ic := range p.TLS {
		if replaced := ic.InterceptChain(serverName, chain); replaced != nil {
			return replaced
		}
	}
	return nil
}

// ObserveFetch threads a node fetch through every monitor, innermost last,
// so each monitor's proceed wraps the next.
func (p *Path) ObserveFetch(env *Env, host, path string, fetch func()) {
	wrapped := fetch
	for i := len(p.Monitors) - 1; i >= 0; i-- {
		m := p.Monitors[i]
		inner := wrapped
		wrapped = func() { m.Observe(env, host, path, inner) }
	}
	wrapped()
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

// StreamFor collects the stream interceptors engaging for a port.
func (p *Path) StreamFor(port uint16) []StreamInterceptor {
	if p == nil {
		return nil
	}
	var out []StreamInterceptor
	for _, ic := range p.Stream {
		if ic.AppliesTo(port) {
			out = append(out, ic)
		}
	}
	return out
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
