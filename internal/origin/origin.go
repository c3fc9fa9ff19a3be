// Package origin implements the measurement team's server-side
// infrastructure: the web server that serves the probe objects and logs
// every arriving request (the paper's detection signal for both the exit
// node's identity, §4.1 step 2, and content monitoring, §7), plus helpers
// for hijacker landing pages, TLS sites (a site serves a certificate
// record framed before the handshake, FramedTLSSite) and the mail server
// of the SMTP extension (MailServer).
package origin

import (
	"hash/maphash"
	"net"
	"net/netip"
	"sync"
	"time"

	"github.com/tftproject/tft/internal/content"
	"github.com/tftproject/tft/internal/httpwire"
	"github.com/tftproject/tft/internal/simnet"
	"github.com/tftproject/tft/internal/smtpwire"
	"github.com/tftproject/tft/internal/tlssim"
)

// SkewHeader is a simulation affordance: monitors that race ahead of a held
// user request (Bluecoat, §7.2.1) cannot literally preempt it under a
// single-threaded virtual clock, so their fetch carries this header and the
// server logs the request backdated by the given duration (e.g. "-1.2s").
// Real daemons (cmd/originweb) ignore it unless explicitly enabled.
const SkewHeader = "X-Tft-Clock-Skew"

// Request is one logged arrival at the measurement web server.
type Request struct {
	Time time.Time
	// Src is the TCP peer — the exit node's IP (or its VPN egress, or a
	// monitoring entity's server).
	Src netip.Addr
	// Host is the Host header: the unique measurement domain.
	Host string
	Path string
	// UserAgent is the requester's User-Agent header — §7.2 mines it for
	// clues about the monitoring entity.
	UserAgent string
}

// Server is the measurement web server. It serves the four §5.1 objects on
// their canonical paths, a small index page elsewhere, and records every
// request. Safe for concurrent use.
type Server struct {
	clock simnet.Clock
	// AllowSkew honours SkewHeader; the simulated world enables it.
	AllowSkew bool

	// The request log is striped by Host: a probe host belongs to one
	// session, so concurrent sessions rarely meet on a stripe's lock.
	seed maphash.Seed
	logs [logStripes]requestLog
}

const logStripes = 16

// requestLog is one stripe of the per-host request log.
type requestLog struct {
	mu     sync.Mutex
	byHost map[string][]Request // host -> logged requests, arrival order
	total  int
	_      [64]byte // the next stripe's lock is on another cache line
}

// NewServer creates a measurement web server on the given clock.
func NewServer(clock simnet.Clock) *Server {
	s := &Server{clock: clock, seed: maphash.MakeSeed()}
	for i := range s.logs {
		s.logs[i].byHost = make(map[string][]Request)
	}
	return s
}

// Handle processes one parsed request from src and returns the response,
// by value: ConnHandler writes it from its own frame, so a served request
// allocates no response.
//
//tftlint:hotpath
func (s *Server) Handle(src netip.Addr, req *httpwire.Request) httpwire.Response {
	at := s.clock.Now()
	if s.AllowSkew {
		if skew := req.Header.Get(SkewHeader); skew != "" {
			if d, err := time.ParseDuration(skew); err == nil {
				at = at.Add(d)
			}
		}
	}
	host, _ := httpwire.SplitHostPort(req.Header.Get("Host"), 80)
	s.record(Request{Time: at, Src: src, Host: host, Path: req.Target,
		UserAgent: req.Header.Get("User-Agent")})

	if req.Method != "GET" {
		return httpwire.Response{StatusCode: 400, Reason: "Bad Request", Proto: "HTTP/1.1", Body: []byte("unsupported method")}
	}
	body, contentType := indexBody, "text/html; charset=utf-8"
	k, object := objectByPath[req.Target]
	if object {
		body, contentType = content.Object(k), k.ContentType()
	}
	resp := httpwire.Response{StatusCode: 200, Reason: "OK", Proto: "HTTP/1.1", Body: body}
	resp.Header.Set("Content-Type", contentType)
	if object {
		// The canonical bytes are never written: every hop of the proxy
		// chain may hold them by reference.
		resp.MarkShared()
	}
	return resp
}

// objectByPath resolves a request path to the §5.1 object served there. The
// bodies themselves are content.Object's shared read-only slices, generated
// the first time a path is actually requested.
var objectByPath = func() map[string]content.Kind {
	m := make(map[string]content.Kind, len(content.Kinds))
	for _, k := range content.Kinds {
		m[k.Path()] = k
	}
	return m
}()

// IndexBody is the small page served for non-object paths. At well under
// 1 KB it doubles as the probe for the §5.1 object-size observation:
// injectors leave tiny objects alone. Every call returns the same shared
// slice: callers must treat it as read-only.
func IndexBody() []byte { return indexBody }

const indexPage = "<html><head><title>tft probe</title></head><body>ok</body></html>"

// Capacity is clipped to the length so an append by a caller reallocates
// instead of writing into the shared page.
var indexBody = []byte(indexPage)[:len(indexPage):len(indexPage)]

// log returns the stripe of the request log that holds host.
//
//tftlint:hotpath
func (s *Server) log(host string) *requestLog {
	return &s.logs[maphash.String(s.seed, host)%logStripes]
}

func (s *Server) record(r Request) {
	l := s.log(r.Host)
	l.mu.Lock()
	l.byHost[r.Host] = append(l.byHost[r.Host], r)
	l.total++
	l.mu.Unlock()
}

// RequestsFor returns the logged requests whose Host is host, ordered by
// log arrival (callers sort by Time when they need backdated entries
// in timestamp order).
func (s *Server) RequestsFor(host string) []Request {
	l := s.log(host)
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Request, len(l.byHost[host]))
	copy(out, l.byHost[host])
	return out
}

// Take returns the logged requests whose Host is host, in arrival order, and
// forgets them, in one critical section: the log's own slice, handed over
// rather than copied, since nothing else can reach it once it is gone. It is
// what a crawl that reads a probe host's log once calls instead of
// RequestsFor and Forget.
//
//tftlint:hotpath
func (s *Server) Take(host string) []Request {
	l := s.log(host)
	l.mu.Lock()
	reqs := l.byHost[host]
	delete(l.byHost, host)
	l.mu.Unlock()
	return reqs
}

// Forget drops the logged requests for a host. Experiments that fully
// consume a probe name's log release it so a paper-scale crawl holds
// O(in-flight sessions) log entries instead of O(all sessions).
// RequestCount still includes forgotten arrivals.
func (s *Server) Forget(host string) {
	l := s.log(host)
	l.mu.Lock()
	delete(l.byHost, host)
	l.mu.Unlock()
}

// RequestCount returns the total number of logged requests, including any
// later released with Forget.
func (s *Server) RequestCount() int {
	total := 0
	for i := range s.logs {
		l := &s.logs[i]
		l.mu.Lock()
		total += l.total
		l.mu.Unlock()
	}
	return total
}

// ConnHandler serves one connection: a single request/response exchange,
// as the experiments use Connection: close semantics.
func (s *Server) ConnHandler() simnet.ConnHandler {
	return func(conn net.Conn) {
		defer conn.Close()
		src, _ := simnet.RemoteIP(conn)
		req, err := httpwire.ReadRequestFrom(conn)
		if err != nil {
			return
		}
		resp := s.Handle(src, req)
		resp.Write(conn)
	}
}

// StaticPage returns a handler serving fixed bytes for every request —
// hijacker landing pages, injected-ad hosts, and other third-party content.
func StaticPage(body []byte, contentType string) simnet.ConnHandler {
	return func(conn net.Conn) {
		defer conn.Close()
		if _, err := httpwire.ReadRequestFrom(conn); err != nil {
			return
		}
		resp := httpwire.NewResponse(200, body)
		resp.Header.Set("Content-Type", contentType)
		resp.Write(conn)
	}
}

// TLSSite returns a handler that answers tlssim handshakes with the chain
// for the requested SNI, framed afresh for every handshake. The world's
// sites frame theirs once (FramedTLSSite); this adapter is for callers that
// hold chains.
func TLSSite(chains tlssim.ChainSource) simnet.ConnHandler {
	return FramedTLSSite(func(sni string) []byte {
		if chain := chains(sni); chain != nil {
			return tlssim.FrameChain(chain)
		}
		return nil
	})
}

// FramedTLSSite returns a handler that answers tlssim handshakes with the
// certificate record records supplies for the requested SNI, as framed:
// the serve path encodes nothing. The site answers on its stream's
// readiness callbacks, so it may be registered with HandleTCP behind a
// CONNECT tunnel; a real socket enters the same handler through
// simnet.AsStream.
func FramedTLSSite(records tlssim.RecordSource) simnet.ConnHandler {
	return func(conn net.Conn) { serveTLS(simnet.AsStream(conn, nil), records) }
}

// MailServer returns a handler that serves mail's SMTP session prefix on
// its stream's readiness callbacks — the greeting written at accept — so
// the server-talks-first protocol may be registered with HandleTCP behind
// a CONNECT tunnel; a real socket enters the same handler through
// simnet.AsStream.
func MailServer(mail *smtpwire.Server) simnet.ConnHandler {
	return func(conn net.Conn) { serveMail(simnet.AsStream(conn, nil), mail) }
}
