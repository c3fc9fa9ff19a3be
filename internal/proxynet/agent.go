package proxynet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"strconv"
	"sync"
	"time"

	"github.com/tftproject/tft/internal/dnswire"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/httpwire"
	"github.com/tftproject/tft/internal/simnet"
	"github.com/tftproject/tft/internal/trace"
)

// Agent-protocol methods and headers. The protocol rides on httpwire
// messages over the persistent agent connection:
//
//	agent → gateway:  REGISTER <zid>      (once per connection)
//	gateway → agent:  RESOLVE <name>      → 200 with rcode/ip headers
//	                  GET <path>          → the fetched response
//	                  CONNECT <ip:port>   → 200, then a raw byte tunnel
const (
	methodRegister = "REGISTER"
	methodResolve  = "RESOLVE"

	hdrCountry = "X-Tft-Country"
	hdrNodeIP  = "X-Tft-Node-Ip"
	hdrIP      = "X-Tft-Ip"
	hdrPort    = "X-Tft-Port"
	hdrRCode   = "X-Tft-Rcode"
)

// agentConnsPerPeer caps a remote peer's idle connection pool.
const agentConnsPerPeer = 16

// Agent-protocol timeouts: waiting for an idle connection, one RPC
// round-trip, and the registration handshake. Agent connections ride real
// sockets, so every one of them runs on the wall clock (simnet.Real).
const (
	agentBorrowTimeout   = 2 * time.Second
	agentRPCTimeout      = 30 * time.Second
	agentRegisterTimeout = 10 * time.Second
)

// The agent's reconnect schedule: the first delay, which consecutive
// failures double with seeded jitter, and the cap.
const (
	agentBackoff    = 500 * time.Millisecond
	agentBackoffCap = 30 * time.Second
)

// errPeerBusy is returned when a remote peer has no idle agent connection.
var errPeerBusy = errors.New("proxynet: remote peer has no available agent connection")

// remotePeer is a Peer backed by agent connections from another process.
type remotePeer struct {
	zid     string
	ip      netip.Addr
	country geo.CountryCode

	mu   sync.Mutex
	idle chan net.Conn
	live int
	gone bool
}

// PeerID implements Peer.
func (p *remotePeer) PeerID() string { return p.zid }

// PeerIP implements Peer.
func (p *remotePeer) PeerIP() netip.Addr { return p.ip }

// PeerCountry implements Peer.
func (p *remotePeer) PeerCountry() geo.CountryCode { return p.country }

// Online implements Peer: a remote peer is usable while any agent
// connection is live.
func (p *remotePeer) Online() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live > 0 && !p.gone
}

// addConn registers a fresh agent connection.
func (p *remotePeer) addConn(conn net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.gone {
		return false
	}
	select {
	case p.idle <- conn:
		p.live++
		return true
	default:
		return false
	}
}

// borrow takes an idle connection, giving up after agentBorrowTimeout.
func (p *remotePeer) borrow() (net.Conn, error) {
	timeout := make(chan struct{})
	t := simnet.Real{}.AfterFunc(agentBorrowTimeout, func() { close(timeout) })
	defer t.Stop()
	select {
	case conn := <-p.idle:
		return conn, nil
	case <-timeout:
		return nil, errPeerBusy
	}
}

// put returns a healthy connection to the pool.
func (p *remotePeer) put(conn net.Conn) {
	select {
	case p.idle <- conn:
	default:
		p.drop(conn)
	}
}

// drop discards a broken connection.
func (p *remotePeer) drop(conn net.Conn) {
	conn.Close()
	p.release()
}

// release counts a connection out of the pool: dropped, or consumed by a
// tunnel, whose bridge closes it once its last bytes are out.
func (p *remotePeer) release() {
	p.mu.Lock()
	p.live--
	p.mu.Unlock()
}

// rpc performs one request/response exchange on a borrowed connection.
func (p *remotePeer) rpc(req *httpwire.Request) (*httpwire.Response, error) {
	conn, err := p.borrow()
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(simnet.Real{}.Now().Add(agentRPCTimeout))
	resp, err := httpwire.Exchange(conn, req)
	if err != nil {
		p.drop(conn)
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	p.put(conn)
	return resp, nil
}

// ResolveA implements Peer by delegating resolution to the agent.
func (p *remotePeer) ResolveA(ctx context.Context, name string) (netip.Addr, dnswire.RCode, error) {
	req := httpwire.NewRequest(methodResolve, name)
	stampTrace(ctx, req)
	resp, err := p.rpc(req)
	if err != nil {
		return netip.Addr{}, dnswire.RCodeServFail, err
	}
	rc, err := strconv.Atoi(resp.Header.Get(hdrRCode))
	if err != nil {
		return netip.Addr{}, dnswire.RCodeServFail, fmt.Errorf("proxynet: bad agent rcode %q", resp.Header.Get(hdrRCode))
	}
	var ip netip.Addr
	if v := resp.Header.Get(hdrIP); v != "" {
		ip, _ = netip.ParseAddr(v)
	}
	return ip, dnswire.RCode(rc), nil
}

// FetchHTTP implements Peer by delegating the fetch to the agent.
func (p *remotePeer) FetchHTTP(ctx context.Context, host string, port uint16, path string, ip netip.Addr) (*httpwire.Response, error) {
	req := httpwire.NewRequest("GET", path)
	req.Header.Set("Host", host)
	req.Header.Set(hdrIP, ip.String())
	req.Header.Set(hdrPort, strconv.Itoa(int(port)))
	stampTrace(ctx, req)
	resp, err := p.rpc(req)
	if err != nil {
		return nil, err
	}
	resp.Header.Del(hdrIP)
	resp.Header.Del(hdrPort)
	return resp, nil
}

// Tunnel implements Peer: the agent connection carrying the CONNECT becomes
// the tunnel and is consumed. The relay is the exit node's splice, both
// sockets entering it through simnet.AsStream, so a tunnel that started
// detaches and returns true; done fires when it ends.
func (p *remotePeer) Tunnel(ctx context.Context, client net.Conn, ip netip.Addr, port uint16, done func(error)) bool {
	if done == nil {
		done = func(error) {}
	}
	conn, err := p.borrow()
	if err != nil {
		done(err)
		return false
	}
	req := httpwire.NewRequest("CONNECT", netip.AddrPortFrom(ip, port).String())
	stampTrace(ctx, req)
	tunnel, resp, err := connectHandshake(conn, req)
	if tunnel == nil {
		p.drop(conn)
		if err == nil {
			err = fmt.Errorf("proxynet: agent tunnel refused: %d", resp.StatusCode)
		}
		done(err)
		return false
	}
	startSplice(simnet.AsStream(client, nil), simnet.AsStream(tunnel, nil), nil, nil, func(err error) {
		p.release()
		done(err)
	})
	return true
}

// Gateway accepts agent registrations and materializes remote peers into a
// pool.
type Gateway struct {
	Pool *Pool

	mu    sync.Mutex
	peers map[string]*remotePeer
}

// NewGateway creates an agent gateway feeding pool.
func NewGateway(pool *Pool) *Gateway {
	return &Gateway{Pool: pool, peers: make(map[string]*remotePeer)}
}

// Serve runs the agent accept loop until the listener closes.
func (g *Gateway) Serve(l net.Listener) error {
	return ServeListener(l, g.handle)
}

// handle performs one agent connection's registration handshake.
func (g *Gateway) handle(conn net.Conn) {
	conn.SetDeadline(simnet.Real{}.Now().Add(agentRegisterTimeout))
	req, err := httpwire.ReadRequestFrom(conn)
	if err != nil || req.Method != methodRegister || req.Target == "" {
		conn.Close()
		return
	}
	zid := req.Target
	country := geo.CountryCode(req.Header.Get(hdrCountry))
	ip, _ := netip.ParseAddr(req.Header.Get(hdrNodeIP))
	if !ip.IsValid() {
		if ra, err := netip.ParseAddrPort(conn.RemoteAddr().String()); err == nil {
			ip = ra.Addr()
		}
	}

	g.mu.Lock()
	peer, ok := g.peers[zid]
	if !ok {
		peer = &remotePeer{zid: zid, ip: ip, country: country,
			idle: make(chan net.Conn, agentConnsPerPeer)}
		g.peers[zid] = peer
	}
	g.mu.Unlock()
	if !ok {
		if err := g.Pool.Add(peer); err != nil {
			// zID collision with an existing (simulated) node.
			g.mu.Lock()
			delete(g.peers, zid)
			g.mu.Unlock()
			httpwire.NewResponse(409, []byte(err.Error())).Write(conn)
			conn.Close()
			return
		}
	}

	if err := httpwire.NewResponse(200, nil).Write(conn); err != nil {
		conn.Close()
		return
	}
	conn.SetDeadline(time.Time{})
	if !peer.addConn(conn) {
		conn.Close()
	}
}

// Peers reports the currently registered remote zIDs.
func (g *Gateway) Peers() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.peers))
	for zid := range g.peers {
		out = append(out, zid)
	}
	return out
}

// Agent runs on an exit node's machine: it keeps persistent connections to
// the gateway and executes the node's share of proxied requests.
type Agent struct {
	// Node performs the local work (its Net is typically a TCPDialer and
	// its Resolver speaks real UDP).
	Node *ExitNode
	// Gateway is the super proxy's agent endpoint ("host:port").
	Gateway string
	// Conns is the number of parallel agent connections (default 4).
	Conns int
}

// backoff is the reconnect schedule of the agent's i'th connection; a
// successful connection resets it. Its jitter stream is keyed by the node's
// zID and the connection index, so neither the agents on one gateway nor
// one agent's connections reconnect in lockstep after a simultaneous drop.
func (a *Agent) backoff(i int) *Backoff {
	return NewBackoff(agentBackoff, agentBackoffCap, simnet.SubRand(uint64(i), "agent/"+a.Node.ZID))
}

// Run maintains the agent connections until ctx is cancelled.
func (a *Agent) Run(ctx context.Context) error {
	conns := a.Conns
	if conns <= 0 {
		conns = 4
	}
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		bo := a.backoff(i)
		//tftlint:ignore nogo -- agent worker pool: each persistent connection to the super proxy blocks on a real socket
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if err := a.serveOne(ctx); err != nil && ctx.Err() == nil {
					wait := make(chan struct{})
					t := simnet.Real{}.AfterFunc(bo.Next(), func() { close(wait) })
					select {
					case <-wait:
					case <-ctx.Done():
					}
					t.Stop()
				} else {
					// The connection registered and served: restart the
					// backoff schedule for the next drop.
					bo.Reset()
				}
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// serveOne dials, registers, and serves requests on one connection until
// it breaks or is consumed by a tunnel.
func (a *Agent) serveOne(ctx context.Context) error {
	d := net.Dialer{Timeout: 5 * time.Second}
	conn, err := d.DialContext(ctx, "tcp", a.Gateway)
	if err != nil {
		return err
	}
	// Cancelling ctx closes the connection, a live tunnel's included: one a
	// CONNECT detached onto stops the watch when it ends, and otherwise the
	// return does.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	// The connection and its reader are released exactly once: here when
	// the request loop breaks, or by the tunnel a CONNECT detaches onto.
	br := httpwire.GetReader(conn)
	detached := false
	defer func() {
		if !detached {
			stop()
			conn.Close()
			httpwire.PutReader(br)
		}
	}()

	reg := httpwire.NewRequest(methodRegister, a.Node.ZID)
	reg.Header.Set(hdrCountry, string(a.Node.Country))
	reg.Header.Set(hdrNodeIP, a.Node.Addr.String())
	resp, err := httpwire.RoundTrip(conn, br, reg)
	if err != nil {
		return err
	}
	if resp.StatusCode != 200 {
		return fmt.Errorf("proxynet: registration rejected: %d", resp.StatusCode)
	}

	for {
		req, err := httpwire.ReadRequest(br)
		if err != nil {
			return err
		}
		// The gateway's trace header re-parents the node's spans under the
		// super proxy's attempt span across the process boundary.
		rctx := trace.NewContext(ctx, trace.ParseHeader(req.Header.Get(trace.HeaderName)))
		switch req.Method {
		case methodResolve:
			ip, rcode, _ := a.Node.ResolveA(rctx, req.Target)
			out := httpwire.NewResponse(200, nil)
			out.Header.Set(hdrRCode, strconv.Itoa(int(rcode)))
			if ip.IsValid() {
				out.Header.Set(hdrIP, ip.String())
			}
			if err := out.Write(conn); err != nil {
				return err
			}
		case "GET":
			ip, _ := netip.ParseAddr(req.Header.Get(hdrIP))
			port64, _ := strconv.Atoi(req.Header.Get(hdrPort))
			host, _ := httpwire.SplitHostPort(req.Header.Get("Host"), 80)
			resp, err := a.Node.FetchHTTP(rctx, host, uint16(port64), req.Target, ip)
			if err != nil {
				resp = httpwire.NewResponse(502, []byte(err.Error()))
			}
			err = resp.Write(conn)
			resp.Release() // forwarded; the gateway has its own copy
			if err != nil {
				return err
			}
		case "CONNECT":
			hostStr, port := httpwire.SplitHostPort(req.Target, 443)
			ip, err := netip.ParseAddr(hostStr)
			if err != nil {
				httpwire.NewResponse(400, []byte("bad tunnel target")).Write(conn)
				return err
			}
			if err := httpwire.NewResponse(200, nil).Write(conn); err != nil {
				return err
			}
			// The connection becomes the tunnel and is consumed; the node
			// relays (and its TLS interceptors, if any, do their work).
			// A tunnel that started owns it, reader included, and closes
			// it when the relay ends; one refused before it had it
			// (blocked port, unreachable server) leaves it here.
			detached = a.Node.Tunnel(rctx, &bufferedConn{Conn: conn, br: br}, ip, port, func(error) { stop() })
			return nil
		default:
			httpwire.NewResponse(400, []byte("unknown agent op")).Write(conn)
		}
	}
}
