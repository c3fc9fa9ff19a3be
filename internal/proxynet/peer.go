package proxynet

import (
	"context"
	"net"
	"net/netip"

	"github.com/tftproject/tft/internal/dnswire"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/httpwire"
)

// Peer is an exit node as the super proxy sees it. Two implementations
// exist: *ExitNode (in-process, used by the simulated worlds) and
// *remotePeer (backed by a persistent agent connection from a separate
// process, the analogue of hola_svc.exe's connection to the Hola servers,
// §2.2).
type Peer interface {
	// PeerID is the persistent zID.
	PeerID() string
	// PeerIP is the node's current address as known to the service.
	PeerIP() netip.Addr
	// PeerCountry is the node's advertised country.
	PeerCountry() geo.CountryCode
	// Online reports whether the peer can take requests right now.
	Online() bool
	// ResolveA performs DNS resolution on the node (-dns-remote). The
	// context carries trace propagation alongside cancellation.
	ResolveA(ctx context.Context, name string) (netip.Addr, dnswire.RCode, error)
	// FetchHTTP performs the node-side fetch of a proxied GET.
	FetchHTTP(ctx context.Context, host string, port uint16, path string, ip netip.Addr) (*httpwire.Response, error)
	// Tunnel bridges client to ip:port (normally 443) through the node —
	// the CONNECT data phase. done, when non-nil, fires exactly once with
	// the tunnel's outcome (nil for an orderly close). The return value
	// reports whether the tunnel detached: true means the relay is live
	// when Tunnel returns (done fires later) and the peer owns both
	// connections, whatever their substrate; false means the tunnel never
	// started — done has fired and client is still the caller's to close.
	Tunnel(ctx context.Context, client net.Conn, ip netip.Addr, port uint16, done func(error)) bool
}

// PeerID implements Peer.
func (n *ExitNode) PeerID() string { return n.ZID }

// PeerIP implements Peer.
func (n *ExitNode) PeerIP() netip.Addr { return n.Addr }

// PeerCountry implements Peer.
func (n *ExitNode) PeerCountry() geo.CountryCode { return n.Country }
