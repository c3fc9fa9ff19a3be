package dnsserver

import (
	"net/netip"
	"sync"

	"github.com/tftproject/tft/internal/dnswire"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/simnet"
)

// Exchanger moves one DNS datagram from src to dst — *simnet.Fabric
// implements it, as does the real-UDP adapter. An implementation keeps none
// of query once ExchangeDNS returns, and the response it returns may lie in
// query's capacity past its length (see simnet.DNSHandler): the caller is
// done with both before it recycles the query, as Lookup is.
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

// Resolver is a recursive resolver as an exit node experiences it: a
// service address to send queries to, an egress address the authoritative
// side observes, and optionally a landing page NXDOMAIN answers are
// hijacked to.
type Resolver struct {
	// Addr is the service address clients are configured with.
	Addr netip.Addr
	// Net carries the resolver's upstream queries.
	Net Exchanger
	// Upstream locates the authoritative server for a name. Names without
	// an upstream yield SERVFAIL, which the experiments never trigger.
	Upstream func(name string) (netip.Addr, bool)
	// NXLanding, when valid, is the landing page the resolver answers
	// NXDOMAIN with (§4.3.1–4.3.2); the zero address is an honest resolver.
	NXLanding netip.Addr
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
// response code and first address, after any NXDOMAIN hijack. A name
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
	var ans dnswire.Answer
	if err == nil {
		// The reply may lie in buf, past the query: read it first.
		ans, err = dnswire.ParseAnswer(respWire, id, name, qtype)
	}
	putQueryBuf(buf)
	if err != nil {
		return dnswire.Answer{RCode: dnswire.RCodeServFail}, nil
	}
	return r.applyHijack(ans), nil
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

// applyHijack rewrites an NXDOMAIN answer to the resolver's landing page,
// when it has one.
func (r *Resolver) applyHijack(ans dnswire.Answer) dnswire.Answer {
	if !r.NXLanding.IsValid() || ans.RCode != dnswire.RCodeNXDomain {
		return ans
	}
	return dnswire.Answer{RCode: dnswire.RCodeSuccess, A: r.NXLanding, TTL: 300}
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
