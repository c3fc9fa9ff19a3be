package dnsserver

import (
	"net/netip"
	"sync"

	"github.com/tftproject/tft/internal/dnswire"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/simnet"
)

// Exchanger moves one DNS datagram from src to dst — *simnet.Fabric
// implements it, as does the real-UDP adapter. query is the caller's again
// when ExchangeDNS returns — Lookup recycles it at once — so an
// implementation keeps none of it, and the response it returns shares no
// storage with it.
type Exchanger interface {
	ExchangeDNS(src, dst netip.Addr, query []byte) ([]byte, error)
}

// queryBufs recycles the datagrams Lookup writes its queries into: 512
// bytes, the most a DNS datagram over UDP carries, and more than a query for
// any name (at most 272). No handle to one is out once its exchange has
// returned, so ownership, not a generation, is the rule.
var queryBufs = sync.Pool{New: func() any { return new([512]byte) }}

// poisonQueryOnPut makes putQueryBuf overwrite a datagram before pooling it,
// so that a handler still holding the query reads garbage at once rather
// than whenever the next lookup fills the buffer. Tests switch it on around
// whole crawls; nothing else may.
var poisonQueryOnPut bool

func getQueryBuf() *[512]byte { return queryBufs.Get().(*[512]byte) }

func putQueryBuf(b *[512]byte) {
	if poisonQueryOnPut {
		for i := range b {
			b[i] = 0xDB
		}
	}
	queryBufs.Put(b)
}

// NXRewriter is an NXDOMAIN hijack policy: given the queried name, return
// the landing-page address to substitute for the error (ok=false leaves the
// NXDOMAIN untouched). Implementations live with the middlebox behaviours.
type NXRewriter interface {
	RewriteNX(name string) (netip.Addr, bool)
}

// Resolver is a recursive resolver as an exit node experiences it: a
// service address to send queries to, an egress address the authoritative
// side observes, and optionally a hijack policy applied to NXDOMAIN
// answers.
type Resolver struct {
	// Addr is the service address clients are configured with.
	Addr netip.Addr
	// Net carries the resolver's upstream queries.
	Net Exchanger
	// Upstream locates the authoritative server for a name. Names without
	// an upstream yield SERVFAIL, which the experiments never trigger.
	Upstream func(name string) (netip.Addr, bool)
	// Hijack, when non-nil, rewrites NXDOMAIN answers (§4.3.1–4.3.2).
	Hijack NXRewriter
	// EgressFor maps the querying client to the egress address the
	// authoritative server sees. Nil means queries egress from Addr. The
	// Google anycast resolver overrides this so different clients surface
	// from different instances (§4.1 footnote 8).
	EgressFor func(client netip.Addr) netip.Addr
}

// NewResolver builds an honest resolver at addr.
func NewResolver(addr netip.Addr, net Exchanger, upstream func(string) (netip.Addr, bool)) *Resolver {
	return &Resolver{Addr: addr, Net: net, Upstream: upstream}
}

// NewGoogleResolver builds the 8.8.8.8 anycast resolver: honest (Google is
// "well-known to not hijack responses", §4.3.3), with per-client egress
// instances.
func NewGoogleResolver(net Exchanger, upstream func(string) (netip.Addr, bool)) *Resolver {
	return &Resolver{
		Addr: geo.GoogleDNSAddr, Net: net, Upstream: upstream,
		EgressFor: geo.GoogleEgressFor,
	}
}

// egress returns the egress address used for a client's query.
func (r *Resolver) egress(client netip.Addr) netip.Addr {
	if r.EgressFor != nil {
		return r.EgressFor(client)
	}
	return r.Addr
}

// Lookup resolves name for client and returns what the client learns: the
// response code and first address, after any hijack policy has run. A name
// with no authority, an exchange that fails, and a datagram that is
// malformed or not the answer to this query are all SERVFAIL.
//
//tftlint:hotpath
func (r *Resolver) Lookup(client netip.Addr, name string, qtype dnswire.Type) (dnswire.Answer, error) {
	auth, ok := r.Upstream(name)
	if !ok {
		return dnswire.Answer{RCode: dnswire.RCodeServFail}, nil
	}
	id := queryID(client, name)
	buf := getQueryBuf()
	wire, err := dnswire.AppendQuery(buf[:0], id, name, qtype)
	if err != nil {
		putQueryBuf(buf)
		return dnswire.Answer{}, err
	}
	respWire, err := r.Net.ExchangeDNS(r.egress(client), auth, wire)
	putQueryBuf(buf)
	if err != nil {
		return dnswire.Answer{RCode: dnswire.RCodeServFail}, nil
	}
	ans, err := dnswire.ParseAnswer(respWire, id, name, qtype)
	if err != nil {
		return dnswire.Answer{RCode: dnswire.RCodeServFail}, nil
	}
	return r.applyHijack(name, ans), nil
}

// Handler serves the resolver on the wire to the sources admit lets in
// (nil admits everyone: an open resolver); anyone else is REFUSED, as a
// closed ISP resolver answers outsiders (§8). An admitted query is relayed
// through Lookup, and the reply carries what Lookup returns and no more: the
// response code and, when there is one, the address under the question's
// own name. Malformed input, a response, anything but one question, a
// failed Lookup, or a question whose name holds a compression pointer is
// dropped (nil).
func (r *Resolver) Handler(admit func(src netip.Addr) bool) simnet.DNSHandler {
	return func(src netip.Addr, query []byte) []byte {
		h, q, err := dnswire.ParseQuery(query)
		if err != nil || h.Response || h.Questions != 1 {
			return nil
		}
		if admit != nil && !admit(src) {
			return reply(query, false, dnswire.Answer{RCode: dnswire.RCodeRefused}, nil)
		}
		ans, err := r.Lookup(src, q.Name, q.Type)
		if err != nil {
			return nil
		}
		return reply(query, false, ans, nil)
	}
}

// applyHijack rewrites an NXDOMAIN answer per the resolver's policy.
func (r *Resolver) applyHijack(name string, ans dnswire.Answer) dnswire.Answer {
	if r.Hijack == nil || ans.RCode != dnswire.RCodeNXDomain {
		return ans
	}
	landing, ok := r.Hijack.RewriteNX(name)
	if !ok {
		return ans
	}
	return dnswire.Answer{RCode: dnswire.RCodeSuccess, A: landing, TTL: 300}
}

// queryID derives a deterministic query ID from client and name so runs are
// reproducible. An IPv4 (or IPv4-mapped) client hashes its four bytes, an
// IPv6 client its sixteen, and the zero address none.
func queryID(client netip.Addr, name string) uint16 {
	var h uint32 = 2166136261
	a16 := client.As16()
	addr := a16[:]
	switch {
	case client.Is4() || client.Is4In6():
		addr = a16[12:]
	case !client.IsValid():
		addr = nil
	}
	for _, b := range addr {
		h = (h ^ uint32(b)) * 16777619
	}
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return uint16(h>>16) ^ uint16(h)
}

// StaticNX is the simplest NXRewriter: every NXDOMAIN becomes landing.
type StaticNX struct {
	// Name labels the rewriting party where a resolver is printed; no code
	// reads it.
	Name    string
	Landing netip.Addr
}

// RewriteNX implements NXRewriter.
func (s StaticNX) RewriteNX(string) (netip.Addr, bool) { return s.Landing, true }
