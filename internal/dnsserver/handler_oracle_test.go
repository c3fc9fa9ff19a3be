package dnsserver

import (
	"bytes"
	"math/rand/v2"
	"net/netip"
	"slices"
	"strconv"
	"testing"

	"github.com/tftproject/tft/internal/dnswire"
)

// oracleSOA is the record the tree oracle puts in an NXDOMAIN's authority
// section.
var oracleSOA = dnswire.Record{
	Name: "probe.tft-example.net.", Type: dnswire.TypeSOA, Class: dnswire.ClassIN, TTL: 60,
	SOA: &dnswire.SOAData{
		MName: "ns1.probe.tft-example.net.", RName: "hostmaster.probe.tft-example.net.",
		Serial: 2016041300, Refresh: 7200, Retry: 900, Expire: 1209600, MinTTL: 60,
	},
}

// oracleHandle is the authority's handler as it stood before it answered
// from the wire: decode the query into a tree, build a Reply tree, marshal
// it. It logs to a's own query log.
func oracleHandle(a *Authority, src netip.Addr, query []byte) []byte {
	q, err := dnswire.Unmarshal(query)
	if err != nil || q.Response || len(q.Questions) != 1 {
		return nil
	}
	out, err := oracleResolve(a, src, q).Marshal()
	if err != nil {
		return nil
	}
	return out
}

func oracleResolve(a *Authority, src netip.Addr, q *dnswire.Message) *dnswire.Message {
	question := q.Questions[0]
	name := dnswire.CanonicalName(question.Name)
	resp := q.Reply()
	resp.Authoritative = true

	if !dnswire.IsSubdomain(name, a.zone) {
		resp.RCode = dnswire.RCodeRefused
		return resp
	}

	var rule Rule
	if f := a.policy.Load(); f != nil && *f != nil {
		rule = (*f)(name)
	}
	a.record(Query{Time: a.clock.Now(), Src: src, Name: name, Type: question.Type})

	if question.Type != dnswire.TypeA || rule == nil {
		resp.RCode = dnswire.RCodeNXDomain
		resp.Authorities = append(resp.Authorities, oracleSOA)
		return resp
	}
	ip, ok := rule(src)
	if !ok {
		resp.RCode = dnswire.RCodeNXDomain
		resp.Authorities = append(resp.Authorities, oracleSOA)
		return resp
	}
	resp.Answers = append(resp.Answers, dnswire.Record{
		Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 5, A: ip,
	})
	return resp
}

// asSent turns the tree oracle's reply into what the responders send, which
// copy the question from the query as it arrived where the tree re-encodes
// it lower-case. A question whose name holds a compression pointer is
// dropped (nil). respelled reports a question the tree changes beyond ASCII
// case, which has no byte-for-byte oracle.
func asSent(query, tree []byte) (want []byte, respelled bool) {
	if tree == nil {
		return nil, false
	}
	end := 12
	for query[end] != 0 {
		if query[end]&0xC0 != 0 {
			return nil, false
		}
		end += 1 + int(query[end])
	}
	end += 1 + 4
	if end > len(tree) {
		return nil, true
	}
	for i := 12; i < end; i++ {
		if lower(query[i]) != lower(tree[i]) {
			return nil, true
		}
	}
	want = bytes.Clone(tree)
	copy(want[12:], query[12:end])
	return want, false
}

// sameVerdict holds got, the reply to a query whose question the tree
// re-spells, to the tree's reply: a client that asked the question as sent
// reads from got the response code and address the tree's reply carries.
func sameVerdict(t *testing.T, query, got, tree []byte) {
	t.Helper()
	h, q, err := dnswire.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dnswire.Unmarshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	want := dnswire.Answer{RCode: m.RCode}
	if len(m.Answers) > 0 {
		want.A, want.TTL = m.Answers[0].A, m.Answers[0].TTL
	}
	if ans, err := dnswire.ParseAnswer(got, h.ID, q.Name, q.Type); err != nil || ans != want {
		t.Fatalf("query %x: the reply %x reads %+v, %v; the tree's %+v", query, got, ans, err, want)
	}
}

func lower(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// TestHandlerMatchesTreeOracle: for 2 000 random (name, qtype, src, flags)
// the handler's reply is, byte for byte, what decoding to a tree and
// marshalling a Reply produced with the question as sent (asSent), a
// datagram one of them drops the other drops, and the two query logs end up
// holding the same entries.
func TestHandlerMatchesTreeOracle(t *testing.T) {
	flat, _ := testAuthority(t)
	tree, _ := testAuthority(t)
	u7 := Always(landingIP)
	for _, a := range []*Authority{flat, tree} {
		a.SetFallback(func(name string) Rule {
			if len(name) > 3 && name[:3] == "u-7" {
				return u7
			}
			return testPolicy(name)
		})
	}
	handle := flat.Handler()
	rng := rand.New(rand.NewPCG(20160413, 24))
	names := []string{
		"d1.probe.tft-example.net", "d2.probe.tft-example.net.", "D1.Probe.TFT-Example.Net",
		"never-configured.probe.tft-example.net", "probe.tft-example.net", "www.google.com", ".",
		"tft-example.net", "xprobe.tft-example.net",
	}
	types := []dnswire.Type{dnswire.TypeA, dnswire.TypeA, dnswire.TypeA, dnswire.TypeTXT, dnswire.TypeNS, dnswire.TypeSOA, 28}
	srcs := []netip.Addr{superDNS, ispDNSIP, nodeIP, {}}
	asked := map[string]bool{}
	for i := 0; i < 2000; i++ {
		name := names[rng.IntN(len(names))]
		if rng.IntN(3) == 0 {
			name = "u-" + strconv.Itoa(rng.IntN(100)) + ".probe.tft-example.net"
		}
		asked[name] = true
		q := dnswire.NewQuery(uint16(rng.Uint32()), name, types[rng.IntN(len(types))])
		q.RecursionDesired = rng.IntN(2) == 0
		q.Opcode = uint8(rng.IntN(3))
		switch rng.IntN(40) {
		case 0:
			q.Response = true // dropped
		case 1:
			q.Questions = append(q.Questions, q.Questions[0]) // dropped
		case 2:
			q.Questions = nil // dropped
		case 3: // answered: the query's other sections are checked, and ignored
			q.Additionals = []dnswire.Record{{Name: name, Type: dnswire.TypeTXT, Class: dnswire.ClassIN, Text: []string{"cookie"}}}
		}
		wire, err := q.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if rng.IntN(40) == 0 {
			wire = wire[:rng.IntN(len(wire))] // dropped
		}
		src := srcs[rng.IntN(len(srcs))]
		got, treeReply := handle(src, wire), oracleHandle(tree, src, wire)
		want, respelled := asSent(wire, treeReply)
		if respelled {
			sameVerdict(t, wire, got, treeReply)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("query %d (%s from %v, %x):\n got %x\nwant %x", i, name, src, wire, got, want)
		}
	}
	if got, want := flat.QueryCount(), tree.QueryCount(); got != want || got == 0 {
		t.Fatalf("logged %d queries, the oracle %d", got, want)
	}
	for name := range asked {
		if got, want := flat.QueriesFor(name), tree.QueriesFor(name); !slices.Equal(got, want) {
			t.Fatalf("log for %s: %v, the oracle's %v", name, got, want)
		}
	}
}

// oracleRelay is a resolver's wire service as it stood before
// Resolver.Handler: decode the query into a tree, answer a source admit
// turns away with a REFUSED Reply tree, otherwise Lookup and marshal a Reply
// carrying the answer's code and, when there is one, its address.
func oracleRelay(r *Resolver, admit func(netip.Addr) bool, src netip.Addr, query []byte) []byte {
	q, err := dnswire.Unmarshal(query)
	if err != nil || q.Response || len(q.Questions) != 1 {
		return nil
	}
	if admit != nil && !admit(src) {
		refused := q.Reply()
		refused.RCode = dnswire.RCodeRefused
		out, _ := refused.Marshal()
		return out
	}
	question := q.Questions[0]
	ans, err := r.Lookup(src, question.Name, question.Type)
	if err != nil {
		return nil
	}
	resp := q.Reply()
	resp.RCode = ans.RCode
	if ans.A.IsValid() {
		resp.Answers = append(resp.Answers, dnswire.Record{
			Name: question.Name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: ans.TTL, A: ans.A,
		})
	}
	out, err := resp.Marshal()
	if err != nil {
		return nil
	}
	return out
}

// TestResolverHandlerMatchesRelayOracle: over 3 000 random datagrams —
// well-formed queries with random names, types and flags, the authority's
// test mutations, single-byte corruptions and plain noise — from an
// admitted or a refused source, through an honest or a hijacking resolver,
// closed or open, Resolver.Handler's reply is byte for byte the relay's with
// the question as sent, and a datagram one of them drops the other drops. A
// corruption the tree re-spells beyond ASCII case — a byte past 0x7F in the
// name — is held to the relay's verdict instead (sameVerdict).
func TestResolverHandlerMatchesRelayOracle(t *testing.T) {
	honest, _ := lookupRig(t)
	hijacking, _ := lookupRig(t)
	hijacking.Hijack = StaticNX{Landing: landingIP}
	closed := func(src netip.Addr) bool { return src == nodeIP }
	rng := rand.New(rand.NewPCG(20160413, 26))
	names := []string{
		"d1.probe.tft-example.net", "d2.probe.tft-example.net.", "D1.Probe.TFT-Example.Net",
		"never-configured.probe.tft-example.net", "probe.tft-example.net", "www.google.com", ".",
	}
	types := []dnswire.Type{dnswire.TypeA, dnswire.TypeA, dnswire.TypeA, dnswire.TypeTXT, dnswire.TypeNS, 28}
	srcs := []netip.Addr{nodeIP, ispDNSIP, superDNS}
	answered, refused, dropped := 0, 0, 0
	for i := 0; i < 3000; i++ {
		name := names[rng.IntN(len(names))]
		q := dnswire.NewQuery(uint16(rng.Uint32()), name, types[rng.IntN(len(types))])
		q.RecursionDesired = rng.IntN(2) == 0
		q.Opcode = uint8(rng.IntN(3))
		switch rng.IntN(30) {
		case 0:
			q.Response = true
		case 1:
			q.Questions = append(q.Questions, q.Questions[0])
		case 2:
			q.Questions = nil
		case 3:
			q.Additionals = []dnswire.Record{{Name: name, Type: dnswire.TypeTXT, Class: dnswire.ClassIN, Text: []string{"cookie"}}}
		}
		wire, err := q.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		switch rng.IntN(10) {
		case 0:
			wire[rng.IntN(len(wire))] ^= byte(1 + rng.IntN(255))
		case 1:
			wire = wire[:rng.IntN(len(wire))]
		case 2:
			wire = make([]byte, rng.IntN(64))
			for j := range wire {
				wire[j] = byte(rng.Uint32())
			}
		}
		r := honest
		if rng.IntN(2) == 0 {
			r = hijacking
		}
		admit := closed
		if rng.IntN(4) == 0 {
			admit = nil // open
		}
		src := srcs[rng.IntN(len(srcs))]
		got, treeReply := r.Handler(admit)(src, wire), oracleRelay(r, admit, src, wire)
		want, respelled := asSent(wire, treeReply)
		if respelled {
			sameVerdict(t, wire, got, treeReply)
			continue
		}
		if !bytes.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("datagram %d (%x from %v, hijack %v, open %v):\n got %x\nwant %x",
				i, wire, src, r.Hijack != nil, admit == nil, got, want)
		}
		switch {
		case got == nil:
			dropped++
		case got[3]&0xF == byte(dnswire.RCodeRefused):
			refused++
		default:
			answered++
		}
	}
	if answered == 0 || refused == 0 || dropped == 0 {
		t.Fatalf("answered %d, refused %d, dropped %d: a path went untested", answered, refused, dropped)
	}
}
