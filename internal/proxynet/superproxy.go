package proxynet

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"net/netip"
	"strings"
	"time"
	"unicode/utf8"

	"github.com/tftproject/tft/internal/dnsserver"
	"github.com/tftproject/tft/internal/dnswire"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/httpwire"
	"github.com/tftproject/tft/internal/metrics"
	"github.com/tftproject/tft/internal/simnet"
	"github.com/tftproject/tft/internal/trace"
)

// ProxyPort is the super proxy's service port (Luminati's
// zproxy.luminati.org:22225).
const ProxyPort = 22225

// MaxRetries is how many exit nodes Luminati tries per request (§2.3).
const MaxRetries = 5

// Params are the client's selection controls, encoded in the proxy
// username (§2.3): zone user, -country-XX, -session-N, -dns-remote.
type Params struct {
	User      string
	Country   geo.CountryCode
	Session   string
	RemoteDNS bool
}

// Username renders the parameter-laden proxy username.
func (p Params) Username() string {
	var buf [96]byte
	return string(p.appendUsername(buf[:0]))
}

// appendUsername appends the rendered username to b.
//
//tftlint:hotpath
func (p Params) appendUsername(b []byte) []byte {
	b = append(b, p.User...)
	if p.Country != "" {
		b = append(b, "-country-"...)
		b = appendLower(b, string(p.Country))
	}
	if p.Session != "" {
		b = append(b, "-session-"...)
		b = append(b, p.Session...)
	}
	if p.RemoteDNS {
		b = append(b, "-dns-remote"...)
	}
	return b
}

// appendLower appends strings.ToLower(s), without the temporary when s is
// ASCII, as every country code is.
func appendLower(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return append(b[:len(b)-i], strings.ToLower(s)...)
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		b = append(b, c)
	}
	return b
}

// lowerCountries maps every code in geo.Countries, lower-cased as
// appendUsername renders it, to the code itself.
var lowerCountries = func() map[string]geo.CountryCode {
	m := make(map[string]geo.CountryCode, len(geo.Countries))
	for _, c := range geo.Countries {
		m[strings.ToLower(string(c.Code))] = c.Code
	}
	return m
}()

// countryCode is a username's country value upper-cased: for a code
// geo.Countries lists, as appendUsername renders it, the table's own string
// rather than a new one; strings.ToUpper for anything else.
//
//tftlint:hotpath
func countryCode(val string) geo.CountryCode {
	if cc, ok := lowerCountries[val]; ok {
		return cc
	}
	return geo.CountryCode(strings.ToUpper(val))
}

// ParseUsername decodes a parameter-laden username. The zone-user prefix —
// the full "lum-customer-<name>" triple for Luminati-style zones, otherwise
// the first token — is taken literally, so a customer whose name is itself
// a reserved token (lum-customer-session-x) does not have the following
// token swallowed as a parameter value; parameters parse only after the
// prefix.
//
// The username is walked in place, token by token. Parameter values are
// substrings of it, and so is User whenever the tokens that make it up are
// adjacent — always, for a username Username rendered; only a name with
// parameters in its middle (alice-session-9-x) has to be joined up.
//
//tftlint:hotpath
func ParseUsername(u string) Params {
	var p Params
	// next cuts the token starting at i: the token, and where the one
	// after it starts (past len(u) when there is none).
	next := func(i int) (string, int) {
		if j := strings.IndexByte(u[i:], '-'); j >= 0 {
			return u[i : i+j], i + j + 1
		}
		return u[i:], len(u) + 1
	}
	// The prefix: one token, or lum-customer-<name>.
	tok, i := next(0)
	userEnd := i - 1
	if tok == "lum" && i <= len(u) {
		if tok, j := next(i); tok == "customer" && j <= len(u) {
			_, i = next(j)
			userEnd = i - 1
		}
	}
	// User is u[:userEnd] until a user token turns up that does not follow
	// on from it; from then on it is joined in spill.
	var spillBuf [96]byte
	var spill []byte
	for i <= len(u) {
		start := i
		tok, i = next(i)
		if i <= len(u) {
			val, after := next(i)
			switch {
			case tok == "country":
				p.Country = countryCode(val)
				i = after
				continue
			case tok == "session":
				p.Session = val
				i = after
				continue
			case tok == "dns" && val == "remote":
				p.RemoteDNS = true
				i = after
				continue
			}
		}
		switch {
		case spill != nil:
			spill = append(append(spill, '-'), tok...)
		case start == userEnd+1:
			userEnd = i - 1
		default:
			spill = append(append(append(spillBuf[:0], u[:userEnd]...), '-'), tok...)
		}
	}
	p.User = u[:userEnd]
	if spill != nil {
		p.User = string(spill)
	}
	return p
}

// SuperProxy is the service front end: it authenticates clients, selects
// exit nodes, performs (or delegates) DNS resolution, forwards GETs, and
// bridges CONNECT tunnels.
type SuperProxy struct {
	// Addr is the proxy's own address.
	Addr netip.Addr
	// Pool supplies exit nodes — eager (*Pool) or lazily materialized
	// (*LazyPool).
	Pool NodeSource
	// Resolver performs the super proxy's DNS resolution (Google's service;
	// its egress is pinned so the d2 gate can whitelist it).
	Resolver *dnsserver.Resolver
	// HTTPPort and ConnectPort override the service's allowed target ports
	// (80 and 443). Real-network demos run origins on unprivileged ports.
	HTTPPort    uint16
	ConnectPort uint16
	// AnyPortConnect lifts the CONNECT port restriction entirely — the
	// hypothetical arbitrary-traffic VPN of §3.4 that the SMTP extension
	// measures through. Luminati itself never allowed this.
	AnyPortConnect bool
	// Health, when non-nil, is the per-exit-node circuit breaker: nodes
	// with too many consecutive transport failures are skipped by
	// selectNode until their cooldown lapses (chaos runs wire one; the
	// fault-free baseline leaves it nil so node selection is unchanged).
	Health *HealthTracker
	// Metrics, when non-nil, receives the service-side telemetry: the
	// GET/CONNECT split, per-exit-node request counts, session pin
	// hits/misses, and failure counters.
	Metrics *metrics.Registry
	// Tracer, when non-nil, records a server-side span per proxied request
	// plus one child span per exit-node attempt, parented under the
	// client's trace header when one was stamped.
	Tracer *trace.Tracer
	// Log, when non-nil, receives a structured record per proxied request.
	// Wrap the handler with trace.NewLogHandler so records carry trace IDs.
	Log *slog.Logger

	sessions *sessionTable
}

func (sp *SuperProxy) httpPort() uint16 {
	if sp.HTTPPort != 0 {
		return sp.HTTPPort
	}
	return 80
}

func (sp *SuperProxy) connectPort() uint16 {
	if sp.ConnectPort != 0 {
		return sp.ConnectPort
	}
	return 443
}

// NewSuperProxy assembles a super proxy.
func NewSuperProxy(addr netip.Addr, pool NodeSource, resolver *dnsserver.Resolver, clock simnet.Clock) *SuperProxy {
	return &SuperProxy{Addr: addr, Pool: pool, Resolver: resolver, sessions: newSessionTable(clock)}
}

// ConnHandler serves one proxied request per connection.
func (sp *SuperProxy) ConnHandler() simnet.ConnHandler {
	return func(conn net.Conn) {
		if !sp.ServeConn(conn) {
			conn.Close()
		}
	}
}

// ServeConn handles a single client connection. It reports whether the
// connection detached into a still-live CONNECT tunnel: true means the
// tunnel now owns (and will close) conn; false means the caller closes it.
func (sp *SuperProxy) ServeConn(conn net.Conn) bool {
	// Both request paths read from conn directly once the head-of-line
	// request is parsed.
	req, err := httpwire.ReadRequestFrom(conn)
	if err != nil {
		return false
	}
	params, ok := parseProxyAuth(req.Header.Get("Proxy-Authorization"))
	if !ok {
		httpwire.NewResponse(407, []byte("proxy authentication required")).Write(conn)
		return false
	}
	// The client's trace header (when stamped) parents everything the
	// service does for this request.
	parent := trace.ParseHeader(req.Header.Get(trace.HeaderName))
	if req.Method == "CONNECT" {
		return sp.handleConnect(parent, conn, req, params)
	}
	sp.handleGet(parent, conn, req, params)
	return false
}

// respWriteBudget bounds how long the service will block writing a
// response (or error) back to a client whose receive path has stalled.
const respWriteBudget = 10 * time.Second

// setBudget bounds every wait on conn to d from now on the wall clock;
// d == 0 clears the bound, which also stops its timer. A real socket — a
// daemon's client, an agent connection, an origin cmd/exitnode dials — is
// where peers stop answering. A fabric stream takes no deadline
// (simnet.TakesDeadlines), so setBudget leaves it alone and reads no
// clock: a stalled or faulted stream fails on its own.
func setBudget(conn net.Conn, d time.Duration) {
	if !simnet.TakesDeadlines(conn) {
		return
	}
	var t time.Time
	if d > 0 {
		t = simnet.Real{}.Now().Add(d)
	}
	conn.SetDeadline(t)
}

// fail writes an error response carrying the debug headers, under the write
// budget so an unresponsive client cannot hold the goroutine. The response
// lives in fail's frame, and its body is errStr's bytes from failBodies.
//
//tftlint:hotpath
func (sp *SuperProxy) fail(conn net.Conn, status int, errStr, zid string, ip netip.Addr, attempts []Attempt) {
	body, ok := failBodies[errStr]
	if !ok {
		body = []byte(errStr)
	}
	resp := httpwire.Response{StatusCode: status, Reason: httpwire.ReasonPhrase(status), Proto: "HTTP/1.1", Body: body}
	attachDebug(&resp, zid, ip, attempts, errStr)
	setBudget(conn, respWriteBudget)
	resp.Write(conn)
	setBudget(conn, 0)
}

// The errors fail reports besides the Err* strings.
const (
	errMalformedTarget = "malformed proxy target"
	errPortNotAllowed  = "port not allowed"
	errConnectPort     = "CONNECT allowed to port 443 only"
)

// failBodies are fail's response bodies: every error string it is given,
// converted to bytes once. Nothing writes into a response's body.
var failBodies = func() map[string][]byte {
	m := make(map[string][]byte)
	for _, s := range []string{ErrDNSSuper, ErrDNSPeer, ErrNoPeers, ErrPeerFetch,
		ErrPeerTransport, errMalformedTarget, errPortNotAllowed, errConnectPort} {
		m[s] = []byte(s)
	}
	return m
}()

// resolveSuper is the existence check Luminati runs before forwarding
// (§4.1) — the reason the d2 gate answers the super proxy's resolver — as a
// proxy.resolve span under parent. It asks upstream every time: the
// methodology's probe names are unique per session, so there is nothing for
// a cache to answer. The client address passed to the resolver is the super
// proxy itself, so the Google anycast egress is the pinned instance. A name
// that does not resolve ends the span with ErrDNSSuper, counts
// proxy_dns_super_fail_total and reports false.
func (sp *SuperProxy) resolveSuper(parent trace.SpanContext, host string) (netip.Addr, bool) {
	span := sp.Tracer.StartChild(parent, "proxy.resolve", trace.KindDNS, trace.Str("host", host))
	defer span.End()
	ans, err := sp.Resolver.Lookup(sp.Addr, host, dnswire.TypeA)
	if err != nil {
		ans = dnswire.Answer{RCode: dnswire.RCodeServFail}
	}
	span.SetAttrs(trace.Int("rcode", int64(ans.RCode)))
	if ans.RCode != dnswire.RCodeSuccess || !ans.A.IsValid() {
		span.SetError(ErrDNSSuper)
		sp.Metrics.Counter("proxy_dns_super_fail_total").Inc()
		return netip.Addr{}, false
	}
	return ans.A, true
}

// failAttempt records one failed exit-node try both ways the service
// reports it: as a timeline entry (the X-Hola-Timeline-Debug chain) and as
// a closed error span under the request's server span.
func (sp *SuperProxy) failAttempt(parent trace.SpanContext, attempts []Attempt, zid, errStr string) []Attempt {
	aspan := sp.Tracer.StartChild(parent, "proxy.attempt", trace.KindAttempt, trace.Str("zid", zid))
	aspan.SetError(errStr)
	aspan.End()
	return append(attempts, Attempt{ZID: zid, Err: errStr})
}

// selectNode picks an exit node per the client's parameters, honouring
// session pins and recording failed attempts — each as a closed error span
// under parent. The winning attempt's span is returned open; the caller
// parents the node-side work under it and Ends it when the request
// completes.
func (sp *SuperProxy) selectNode(params Params, parent trace.SpanContext) (Peer, []Attempt, trace.Span) {
	var attempts []Attempt
	// exclude stays nil until a retry actually needs it — the common
	// request succeeds on the first pick and never pays for the map.
	var exclude map[string]bool
	shun := func(zid string) {
		if exclude == nil {
			exclude = make(map[string]bool, MaxRetries)
		}
		exclude[zid] = true
	}
	win := func(zid string) trace.Span {
		return sp.Tracer.StartChild(parent, "proxy.attempt", trace.KindAttempt, trace.Str("zid", zid))
	}
	if params.Session != "" {
		if zid, ok := sp.sessions.get(params.User, params.Session); ok {
			if n, ok := sp.Pool.Get(zid); ok && n.Online() {
				if sp.Health.Allow(zid) {
					sp.sessions.put(params.User, params.Session, zid)
					sp.Metrics.Counter("proxy_session_hits_total").Inc()
					return n, attempts, win(zid)
				}
				// The pinned node's breaker is open: drop the pin and
				// re-pin on whatever healthy node the loop below picks.
				attempts = sp.failAttempt(parent, attempts, zid, ErrPeerUnhealthy)
				shun(zid)
				sp.Metrics.Counter("proxy_breaker_skips_total").Inc()
			} else {
				attempts = sp.failAttempt(parent, attempts, zid, "peer_disconnected")
				shun(zid)
			}
		}
	}
	for len(attempts) < MaxRetries {
		n, up := sp.Pool.Pick(params.Country, exclude)
		if n == nil {
			break
		}
		if !up {
			attempts = sp.failAttempt(parent, attempts, n.PeerID(), "peer_connect_timeout")
			shun(n.PeerID())
			sp.Metrics.Counter("proxy_retry_attempts_total").Inc()
			continue
		}
		if !sp.Health.Allow(n.PeerID()) {
			attempts = sp.failAttempt(parent, attempts, n.PeerID(), ErrPeerUnhealthy)
			shun(n.PeerID())
			sp.Metrics.Counter("proxy_breaker_skips_total").Inc()
			continue
		}
		if params.Session != "" {
			sp.sessions.put(params.User, params.Session, n.PeerID())
			sp.Metrics.Counter("proxy_session_pins_total").Inc()
			sp.Metrics.Gauge("proxy_sessions_pinned").Set(int64(sp.sessions.len()))
		}
		return n, attempts, win(n.PeerID())
	}
	sp.Metrics.Counter("proxy_no_peers_total").Inc()
	return nil, attempts, trace.Span{}
}

// orParent is span's context, or parent when there is no span to have one:
// a service with no tracer passes its caller's context on, so the hops
// behind it still join the caller's trace, and a request outside the trace
// sample passes trace.Unsampled on, so they start no span either.
func orParent(span trace.Span, parent trace.SpanContext) trace.SpanContext {
	if sc := span.Context(); sc.Valid() {
		return sc
	}
	return parent
}

// logRequest emits the one structured record per proxied request, under a
// context carrying the span it belongs to, so a trace-aware handler stamps
// trace_id/span_id on every record.
func (sp *SuperProxy) logRequest(under trace.SpanContext, method, target, zid, errStr string, attempts int) {
	if sp.Log == nil {
		return
	}
	ctx := trace.NewContext(context.Background(), under)
	if errStr != "" {
		sp.Log.WarnContext(ctx, "request failed", "method", method, "target", target,
			"zid", zid, "attempts", attempts, "err", errStr)
		return
	}
	sp.Log.InfoContext(ctx, "request served", "method", method, "target", target,
		"zid", zid, "attempts", attempts)
}

// handleGet proxies an absolute-form GET through an exit node.
func (sp *SuperProxy) handleGet(parent trace.SpanContext, conn net.Conn, req *httpwire.Request, params Params) {
	sp.Metrics.Counter("proxy_get_total").Inc()
	span := sp.Tracer.StartChild(parent, "proxy.get", trace.KindProxy,
		trace.Str("target", req.Target))
	defer span.End()
	// under is the span whatever happens next belongs to: the request's,
	// then the winning attempt's; without a span here, the client's context.
	under := orParent(span, parent)
	failGet := func(status int, errStr, zid string, ip netip.Addr, attempts []Attempt) {
		span.SetError(errStr)
		sp.logRequest(under, "GET", req.Target, zid, errStr, len(attempts))
		sp.fail(conn, status, errStr, zid, ip, attempts)
	}
	host, port, path, err := httpwire.ParseAbsoluteURL(req.Target)
	if err != nil {
		failGet(400, errMalformedTarget, "", netip.Addr{}, nil)
		return
	}
	if port != sp.httpPort() {
		failGet(403, errPortNotAllowed, "", netip.Addr{}, nil)
		return
	}

	ip, ok := sp.resolveSuper(under, host)
	if !ok {
		failGet(502, ErrDNSSuper, "", netip.Addr{}, nil)
		return
	}

	node, attempts, aspan := sp.selectNode(params, under)
	if node == nil {
		failGet(502, ErrNoPeers, "", netip.Addr{}, attempts)
		return
	}
	// Node-side work parents under the winning attempt's span.
	under = orParent(aspan, under)
	ctx := trace.NewContext(context.Background(), under)
	failNode := func(errStr string) {
		aspan.SetError(errStr)
		aspan.End()
		failGet(502, errStr, node.PeerID(), node.PeerIP(), attempts)
	}

	if params.RemoteDNS {
		nip, rc, err := node.ResolveA(ctx, host)
		if err != nil || rc == dnswire.RCodeServFail {
			sp.Health.Failure(node.PeerID())
			failNode(ErrPeerFetch)
			return
		}
		if rc == dnswire.RCodeNXDomain || !nip.IsValid() {
			// NXDOMAIN is the resolver's honest answer, not node distress.
			sp.Health.Success(node.PeerID())
			failNode(ErrDNSPeer)
			return
		}
		ip = nip
	}

	resp, err := node.FetchHTTP(ctx, host, port, path, ip)
	if err != nil {
		sp.Health.Failure(node.PeerID())
		sp.Metrics.Counter("proxy_peer_fetch_fail_total").Inc()
		errStr := ErrPeerFetch
		if IsTransportFault(err) {
			errStr = ErrPeerTransport
			sp.Metrics.Counter("proxy_peer_transport_fail_total").Inc()
		}
		failNode(errStr)
		return
	}
	sp.Health.Success(node.PeerID())
	aspan.End()
	sp.logRequest(under, "GET", req.Target, node.PeerID(), "", len(attempts))
	attachDebug(resp, node.PeerID(), node.PeerIP(), attempts, "")
	setBudget(conn, respWriteBudget)
	resp.Write(conn)
	setBudget(conn, 0)
	// The client has its own copy now, and the exit node's goes back to the
	// pool; a shared body was never pooled, and the client holds it too.
	resp.Release()
}

// handleConnect establishes a TCP tunnel via an exit node; only port 443 is
// allowed (§2.3). It reports whether the tunnel detached (see ServeConn).
func (sp *SuperProxy) handleConnect(parent trace.SpanContext, conn net.Conn, req *httpwire.Request, params Params) bool {
	sp.Metrics.Counter("proxy_connect_total").Inc()
	span := sp.Tracer.StartChild(parent, "proxy.connect", trace.KindProxy,
		trace.Str("target", req.Target))
	defer span.End()
	under := orParent(span, parent) // as in handleGet
	failConnect := func(status int, errStr, zid string, ip netip.Addr, attempts []Attempt) {
		span.SetError(errStr)
		sp.logRequest(under, "CONNECT", req.Target, zid, errStr, len(attempts))
		sp.fail(conn, status, errStr, zid, ip, attempts)
	}
	hostStr, port := httpwire.SplitHostPort(req.Target, 0)
	if !sp.AnyPortConnect && port != sp.connectPort() {
		failConnect(403, errConnectPort, "", netip.Addr{}, nil)
		return false
	}
	ip, err := netip.ParseAddr(hostStr)
	if err != nil {
		// Clients normally CONNECT to IP literals; resolve as a courtesy.
		var ok bool
		if ip, ok = sp.resolveSuper(under, hostStr); !ok {
			failConnect(502, ErrDNSSuper, "", netip.Addr{}, nil)
			return false
		}
	}
	node, attempts, aspan := sp.selectNode(params, under)
	if node == nil {
		failConnect(502, ErrNoPeers, "", netip.Addr{}, attempts)
		return false
	}
	under = orParent(aspan, under)
	ok := httpwire.Response{StatusCode: 200, Reason: "Connection established", Proto: "HTTP/1.1"}
	attachDebug(&ok, node.PeerID(), node.PeerIP(), attempts, "")
	setBudget(conn, respWriteBudget)
	err = ok.Write(conn)
	// The deadline must not outlive the handshake: the tunnel relays on
	// this connection for as long as the client keeps it open.
	setBudget(conn, 0)
	if err != nil {
		sp.Health.Failure(node.PeerID())
		aspan.SetError(err.Error())
		aspan.End()
		return false
	}
	sp.logRequest(under, "CONNECT", req.Target, node.PeerID(), "", len(attempts))
	// The attempt span hands off to the tunnel: it ends when the relay
	// does, which on the event core may be well after this call returns.
	return node.Tunnel(trace.NewContext(context.Background(), under), conn, ip, port, func(err error) {
		// errPortBlocked is a measured property of the node's network, not
		// node distress — counting it would open breakers on every blocked
		// SMTP port and suppress the paper's port-25 results.
		if err != nil && !errors.Is(err, errPortBlocked) {
			sp.Health.Failure(node.PeerID())
			aspan.SetError(err.Error())
		} else {
			sp.Health.Success(node.PeerID())
			if err != nil {
				aspan.SetError(err.Error())
			}
		}
		aspan.End()
	})
}
