package dnsserver

import (
	"net/netip"

	"github.com/tftproject/tft/internal/dnswire"
	"github.com/tftproject/tft/internal/geo"
)

// Exchanger moves one DNS datagram from src to dst — *simnet.Fabric
// implements it, as does the real-UDP adapter.
type Exchanger interface {
	ExchangeDNS(src, dst netip.Addr, query []byte) ([]byte, error)
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

// Lookup resolves name for client, returning the parsed response the client
// receives after any hijack policy has run.
func (r *Resolver) Lookup(client netip.Addr, name string, qtype dnswire.Type) (*dnswire.Message, error) {
	q := dnswire.NewQuery(queryID(client, name), name, qtype)
	wire, err := q.Marshal()
	if err != nil {
		return nil, err
	}
	auth, ok := r.Upstream(name)
	if !ok {
		return r.servFail(q), nil
	}
	respWire, err := r.Net.ExchangeDNS(r.egress(client), auth, wire)
	if err != nil {
		return r.servFail(q), nil
	}
	resp, err := dnswire.Unmarshal(respWire)
	if err != nil {
		return r.servFail(q), nil
	}
	resp.Authoritative = false
	resp.RecursionAvailable = true
	return r.applyHijack(name, resp), nil
}

// servFail is the answer to q when no authority could be asked or none gave
// a usable reply.
func (r *Resolver) servFail(q *dnswire.Message) *dnswire.Message {
	reply := q.Reply()
	reply.RCode = dnswire.RCodeServFail
	return reply
}

// applyHijack rewrites an NXDOMAIN response per the resolver's policy.
func (r *Resolver) applyHijack(name string, resp *dnswire.Message) *dnswire.Message {
	if r.Hijack == nil || resp.RCode != dnswire.RCodeNXDomain {
		return resp
	}
	landing, ok := r.Hijack.RewriteNX(name)
	if !ok {
		return resp
	}
	resp.RCode = dnswire.RCodeSuccess
	resp.Authorities = nil
	resp.Answers = []dnswire.Record{{
		Name: dnswire.CanonicalName(name), Type: dnswire.TypeA, Class: dnswire.ClassIN,
		TTL: 300, A: landing,
	}}
	return resp
}

// queryID derives a deterministic query ID from client and name so runs are
// reproducible.
func queryID(client netip.Addr, name string) uint16 {
	var h uint32 = 2166136261
	for _, b := range client.As4() {
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
