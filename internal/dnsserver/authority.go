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
// scanners — and both encode through one reply step, dnswire.AppendReply;
// the resolver's encodes what Lookup returned, and so relays neither the
// authority's SOA nor any record besides the address.
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

	// soa is the record every NXDOMAIN carries, framed once: the zone never
	// changes.
	soa dnswire.SOA

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
	byName map[string]loggedQueries
	// spare holds up to spareRests emptied rest slices of forgotten names,
	// for the next names asked about a second time.
	spare [][]Query
	total int
	_     [64]byte // the next stripe's lock is on another cache line
}

// spareRests bounds a stripe's spare rest slices: a name is forgotten a
// session after it is first asked, and few sessions are in flight.
const spareRests = 4

// loggedQueries are one name's logged queries, in arrival order. A probe
// name is asked about once or twice, so the first query lives in the map
// value itself — 96 bytes, which the map keeps inline — and a second one in
// a rest slice that a forgotten name left behind, so that in a crawl's
// steady state neither allocates.
type loggedQueries struct {
	first Query
	rest  []Query
}

// NewAuthority creates an authoritative server for zone.
func NewAuthority(zone string, clock simnet.Clock) *Authority {
	zone = dnswire.CanonicalName(zone)
	a := &Authority{
		zone:  zone,
		clock: clock,
		soa:   dnswire.NewSOA(zone, 60, 2016041300, 7200, 900, 1209600, 60),
		seed:  maphash.MakeSeed(),
	}
	for i := range a.logs {
		a.logs[i].byName = make(map[string]loggedQueries)
		a.logs[i].spare = make([][]Query, 0, spareRests)
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
// datagram out. Malformed input, a response, anything but one question, or a
// question whose name holds a compression pointer is dropped (nil),
// mirroring a server that refuses garbage. An NXDOMAIN carries the zone's
// SOA. The question's name is read into a stack buffer, and the reply goes
// into the query's spare capacity (see reply), so a name's first query is
// all that allocates: its log entry's name.
//
//tftlint:hotpath
func (a *Authority) answer(src netip.Addr, query []byte) []byte {
	var nb [256]byte
	h, name, qtype, _, err := dnswire.ParseQueryName(query, &nb)
	if err != nil || h.Response || h.Questions != 1 {
		return nil
	}
	ans := a.decide(src, name, qtype)
	var soa *dnswire.SOA
	if ans.RCode == dnswire.RCodeNXDomain {
		soa = &a.soa
	}
	return reply(query, true, ans, soa)
}

// reply encodes the response to query that both responders, the authority
// and a resolver's service, send (dnswire.AppendReply). It is appended past
// the end of query, into its spare capacity, as simnet.DNSHandler allows: a
// pooled 512-byte datagram, as Resolver.Lookup sends, takes the reply with
// no allocation, and a query with too little room gets one buffer of the
// reply's exact size. A reply that does not encode is dropped (nil).
//
//tftlint:hotpath
func reply(query []byte, authoritative bool, ans dnswire.Answer, soa *dnswire.SOA) []byte {
	out, err := dnswire.AppendReply(query[len(query):], query, authoritative, ans, soa)
	if err != nil {
		return nil
	}
	return out
}

// decide is the authority's policy for one question from src, logging it
// under the name's canonical form: REFUSED outside the zone, NXDOMAIN, or
// NOERROR with the address. qname is the question's name as
// dnswire.ParseQueryName leaves it, which decide may rewrite in place.
//
//tftlint:hotpath
func (a *Authority) decide(src netip.Addr, qname []byte, qtype dnswire.Type) dnswire.Answer {
	name, ok := canonical(qname)
	if !ok {
		name = []byte(dnswire.CanonicalName(string(qname)))
	}
	if !a.inZone(name) {
		return dnswire.Answer{RCode: dnswire.RCodeRefused}
	}

	// Only the append needs an order: the clock is read before the stripe's
	// lock and the policy after it, not under it.
	logged := a.record(Query{Time: a.clock.Now(), Src: src, Type: qtype}, name)
	var rule Rule
	if f := a.policy.Load(); f != nil && *f != nil {
		rule = (*f)(logged)
	}

	if qtype != dnswire.TypeA || rule == nil {
		return dnswire.Answer{RCode: dnswire.RCodeNXDomain}
	}
	ip, ok := rule(src)
	if !ok {
		return dnswire.Answer{RCode: dnswire.RCodeNXDomain}
	}
	return dnswire.Answer{RCode: dnswire.RCodeSuccess, A: ip, TTL: 5}
}

// canonical rewrites name, a question's name in the dotted form
// dnswire.ParseQueryName leaves, to the form dnswire.CanonicalName gives
// its string, in place: ASCII upper case lowered, and "." for the root. It
// reports false, changing nothing, for a name holding white space or a byte
// past ASCII, which CanonicalName treats otherwise.
//
//tftlint:hotpath
func canonical(name []byte) ([]byte, bool) {
	for _, c := range name {
		if c >= 0x80 || c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f' {
			return name, false
		}
	}
	for i, c := range name {
		if 'A' <= c && c <= 'Z' {
			name[i] = c + 'a' - 'A'
		}
	}
	if len(name) == 0 {
		name = append(name, '.')
	}
	return name, true
}

// inZone reports whether name, in canonical form as the zone is, is the zone
// or falls under it.
//
//tftlint:hotpath
func (a *Authority) inZone(name []byte) bool {
	z := a.zone
	if z == "." || string(name) == z {
		return true
	}
	return len(name) > len(z) && name[len(name)-len(z)-1] == '.' && string(name[len(name)-len(z):]) == z
}

// record appends q to the log of name, which is in canonical form, and
// returns the name as the log holds it: a string made for a name's first
// query, and that same string for every later one, which finds its entry
// by the bytes.
//
//tftlint:hotpath
func (a *Authority) record(q Query, name []byte) string {
	l := &a.logs[maphash.Bytes(a.seed, name)%logStripes] // the stripe log names
	l.mu.Lock()
	if e, ok := l.byName[string(name)]; ok {
		q.Name = e.first.Name
		if n := len(l.spare); cap(e.rest) == 0 && n > 0 {
			e.rest, l.spare = l.spare[n-1], l.spare[:n-1]
		}
		e.rest = append(e.rest, q)
		l.byName[q.Name] = e
	} else {
		q.Name = string(name)
		l.byName[q.Name] = loggedQueries{first: q}
	}
	l.total++
	l.mu.Unlock()
	return q.Name
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
	e, ok := l.byName[name]
	if !ok {
		return []Query{}
	}
	return append(append(make([]Query, 0, 1+len(e.rest)), e.first), e.rest...)
}

// Take appends the logged queries for a name to dst, in arrival order, and
// forgets them, in one critical section: what a crawl that reads a probe
// name's log once does instead of QueriesFor and Forget. A dst with room
// for them, such as a caller's stack array, takes them with no allocation.
//
//tftlint:hotpath
func (a *Authority) Take(name string, dst []Query) []Query {
	name = dnswire.CanonicalName(name)
	l := a.log(name)
	l.mu.Lock()
	if e, ok := l.byName[name]; ok {
		dst = append(append(dst, e.first), e.rest...)
		l.drop(name, e)
	}
	l.mu.Unlock()
	return dst
}

// Forget drops the logged queries for a name. Experiments that fully
// consume a probe name's log release it so a paper-scale crawl holds
// O(in-flight sessions) log entries instead of O(all sessions). QueryCount
// still includes forgotten arrivals.
func (a *Authority) Forget(name string) {
	name = dnswire.CanonicalName(name)
	l := a.log(name)
	l.mu.Lock()
	if e, ok := l.byName[name]; ok {
		l.drop(name, e)
	}
	l.mu.Unlock()
}

// drop deletes name's entry e and keeps its rest slice, emptied, as a spare
// when there is room and the slice is a probe name's, a few entries long: a
// long one is left to the collector. Callers hold l.mu.
//
//tftlint:hotpath
func (l *queryLog) drop(name string, e loggedQueries) {
	delete(l.byName, name)
	if c := cap(e.rest); c > 0 && c <= spareRests && len(l.spare) < spareRests {
		clear(e.rest)
		l.spare = append(l.spare, e.rest[:0])
	}
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
