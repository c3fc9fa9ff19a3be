// Package dnsserver implements the DNS actors of the NXDOMAIN experiment
// (§4): the measurement team's authoritative server — whose per-name,
// per-source answer policy is the heart of the d1/d2 trick — and the
// recursive resolvers exit nodes are configured to use, honest or hijacking.
//
// A resolver here is a behaviour, not a byte pipe: it receives a client
// query, forwards it to the authoritative server for the zone (so the
// authoritative query log records the resolver's egress address, which is
// all the paper can observe), and may rewrite an NXDOMAIN answer into an A
// record pointing at an ad-laden landing page before handing it back. What
// it hands back is a dnswire.Answer — the response code and the first
// address, all that a client of a resolver acts on — and not a message: the
// authority's reply is read where it lies, checked to be the answer to the
// question asked, and dropped. Only the datagrams themselves cross the
// network. The package owns both responders on the wire, Authority.Handler
// and Resolver.Handler — the service a resolver offers open-resolver
// scanners — and both encode through one reply step; the resolver's
// encodes what Lookup returned, and so relays neither the authority's SOA
// nor any record besides the address.
package dnsserver

import (
	"hash/maphash"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tftproject/tft/internal/dnswire"
	"github.com/tftproject/tft/internal/simnet"
)

// Query is one logged authoritative query.
type Query struct {
	Time time.Time
	// Src is the address the query arrived from: the exit node's resolver's
	// egress, which step 2 of §4.1 records.
	Src  netip.Addr
	Name string
	Type dnswire.Type
}

// Rule decides the authoritative answer for one name. Answer returns the A
// record target, or ok=false for NXDOMAIN.
type Rule func(src netip.Addr) (ip netip.Addr, ok bool)

// Always answers with ip for every querier (the d1 rule).
func Always(ip netip.Addr) Rule {
	return func(netip.Addr) (netip.Addr, bool) { return ip, true }
}

// OnlyFrom answers with ip when allow(src) is true and NXDOMAIN otherwise —
// the d2 rule, with allow set to "is the super proxy's resolver" (§4.1
// step 1).
func OnlyFrom(ip netip.Addr, allow func(src netip.Addr) bool) Rule {
	return func(src netip.Addr) (netip.Addr, bool) {
		if allow(src) {
			return ip, true
		}
		return netip.Addr{}, false
	}
}

// Authority is the measurement team's authoritative DNS server for one
// zone. Every query is logged with its source address and virtual
// timestamp.
type Authority struct {
	zone  string
	clock simnet.Clock

	// soa is the record every NXDOMAIN carries, built once: the zone never
	// changes. Responses share its payload and must not write to it.
	soa dnswire.Record

	// policy is the answer policy SetFallback installed, read by every
	// query.
	policy atomic.Pointer[func(name string) Rule]

	// The query log is striped by name: a probe name belongs to one session,
	// so concurrent sessions rarely meet on a stripe's lock.
	seed maphash.Seed
	logs [logStripes]queryLog
}

const logStripes = 16

// queryLog is one stripe of the per-name query log.
type queryLog struct {
	mu     sync.Mutex
	byName map[string][]Query // name -> logged queries, arrival order
	total  int
	_      [64]byte // the next stripe's lock is on another cache line
}

// NewAuthority creates an authoritative server for zone.
func NewAuthority(zone string, clock simnet.Clock) *Authority {
	zone = dnswire.CanonicalName(zone)
	a := &Authority{
		zone:  zone,
		clock: clock,
		soa: dnswire.Record{
			Name: zone, Type: dnswire.TypeSOA, Class: dnswire.ClassIN, TTL: 60,
			SOA: &dnswire.SOAData{
				MName: "ns1." + zone, RName: "hostmaster." + zone,
				Serial: 2016041300, Refresh: 7200, Retry: 900, Expire: 1209600, MinTTL: 60,
			},
		},
		seed: maphash.MakeSeed(),
	}
	for i := range a.logs {
		a.logs[i].byName = make(map[string][]Query)
	}
	return a
}

// SetFallback installs the authority's answer policy, replacing any earlier
// one whole: f maps a queried name, in canonical form, to its rule, and a
// nil rule — or no policy at all — is NXDOMAIN. Every world installs
// core.ProbeRules here, giving the probe name families (d1-*, d2-*, h-*,
// u-*) their semantics in O(1) memory instead of one entry per probed node.
func (a *Authority) SetFallback(f func(name string) Rule) {
	a.policy.Store(&f)
}

// Handler adapts the authority to the simnet DNS handler signature.
func (a *Authority) Handler() simnet.DNSHandler { return a.answer }

// answer is the authority on the wire: one query datagram in, the response
// datagram out. Malformed input, a response, or anything but one question is
// dropped (nil), mirroring a server that refuses garbage. decide hands back
// values, so nothing but the question's name and the encoded reply is made.
//
//tftlint:hotpath
func (a *Authority) answer(src netip.Addr, query []byte) []byte {
	h, q, err := dnswire.ParseQuery(query)
	if err != nil || h.Response || h.Questions != 1 {
		return nil
	}
	name, rcode, ip := a.decide(src, q.Name, q.Type)
	var record [1]dnswire.Record
	switch rcode {
	case dnswire.RCodeSuccess:
		record[0] = dnswire.Record{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 5, A: ip}
		return reply(h, q, true, rcode, record[:], nil)
	case dnswire.RCodeNXDomain:
		record[0] = a.soa
		return reply(h, q, true, rcode, nil, record[:])
	}
	return reply(h, q, true, rcode, nil, nil)
}

// reply encodes the response to the query (h, q) that both responders, the
// authority and a resolver's service, send: the query's ID, opcode,
// recursion-desired bit and question echoed, recursion available, and the
// given sections. The reply is a Message over its caller's records on this
// frame, so the encoded bytes are all it makes; a record that does not
// encode drops the reply (nil).
//
//tftlint:hotpath
func reply(h dnswire.Header, q dnswire.Question, authoritative bool, rcode dnswire.RCode, answers, authorities []dnswire.Record) []byte {
	questions := [1]dnswire.Question{q}
	resp := dnswire.Message{
		ID: h.ID, Response: true, Opcode: h.Opcode, Authoritative: authoritative,
		RecursionDesired: h.RecursionDesired, RecursionAvailable: true,
		RCode: rcode, Questions: questions[:], Answers: answers, Authorities: authorities,
	}
	out, err := resp.Marshal()
	if err != nil {
		return nil
	}
	return out
}

// decide is the authority's policy for one question from src, logging it:
// the name in canonical form, the response code, and with NOERROR the
// address.
//
//tftlint:hotpath
func (a *Authority) decide(src netip.Addr, qname string, qtype dnswire.Type) (name string, rcode dnswire.RCode, ip netip.Addr) {
	name = dnswire.CanonicalName(qname)
	if !dnswire.IsSubdomain(name, a.zone) {
		return name, dnswire.RCodeRefused, netip.Addr{}
	}

	// Only the append needs an order: the clock and the policy are read
	// before the stripe's lock, not under it.
	logged := Query{Time: a.clock.Now(), Src: src, Name: name, Type: qtype}
	var rule Rule
	if f := a.policy.Load(); f != nil && *f != nil {
		rule = (*f)(name)
	}
	l := a.log(name)
	l.mu.Lock()
	l.byName[name] = append(l.byName[name], logged)
	l.total++
	l.mu.Unlock()

	if qtype != dnswire.TypeA || rule == nil {
		return name, dnswire.RCodeNXDomain, netip.Addr{}
	}
	ip, ok := rule(src)
	if !ok {
		return name, dnswire.RCodeNXDomain, netip.Addr{}
	}
	return name, dnswire.RCodeSuccess, ip
}

// log returns the stripe of the query log that holds name (in canonical
// form).
//
//tftlint:hotpath
func (a *Authority) log(name string) *queryLog {
	return &a.logs[maphash.String(a.seed, name)%logStripes]
}

// QueriesFor returns the logged queries for a name, in arrival order.
func (a *Authority) QueriesFor(name string) []Query {
	name = dnswire.CanonicalName(name)
	l := a.log(name)
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Query, len(l.byName[name]))
	copy(out, l.byName[name])
	return out
}

// Forget drops the logged queries for a name. Experiments that fully
// consume a probe name's log release it so a paper-scale crawl holds
// O(in-flight sessions) log entries instead of O(all sessions). QueryCount
// still includes forgotten arrivals.
func (a *Authority) Forget(name string) {
	name = dnswire.CanonicalName(name)
	l := a.log(name)
	l.mu.Lock()
	delete(l.byName, name)
	l.mu.Unlock()
}

// QueryCount returns the total number of logged queries, including any
// later released with Forget.
func (a *Authority) QueryCount() int {
	total := 0
	for i := range a.logs {
		l := &a.logs[i]
		l.mu.Lock()
		total += l.total
		l.mu.Unlock()
	}
	return total
}
