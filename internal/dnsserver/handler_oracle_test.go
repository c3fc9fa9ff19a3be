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

	logged := Query{Time: a.clock.Now(), Src: src, Name: name, Type: question.Type}
	p := a.policy.Load()
	rule := p.rules[name]
	if rule == nil && p.fallback != nil {
		rule = p.fallback(name)
	}
	l := a.log(name)
	l.mu.Lock()
	l.byName[name] = append(l.byName[name], logged)
	l.total++
	l.mu.Unlock()

	if question.Type != dnswire.TypeA || rule == nil {
		resp.RCode = dnswire.RCodeNXDomain
		resp.Authorities = append(resp.Authorities, a.soa)
		return resp
	}
	ip, ok := rule(src)
	if !ok {
		resp.RCode = dnswire.RCodeNXDomain
		resp.Authorities = append(resp.Authorities, a.soa)
		return resp
	}
	resp.Answers = append(resp.Answers, dnswire.Record{
		Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 5, A: ip,
	})
	return resp
}

// TestHandlerMatchesTreeOracle: for 2 000 random (name, qtype, src, flags)
// the handler's reply is, byte for byte, what decoding to a tree and
// marshalling a Reply produced, a datagram one of them drops the other drops,
// and the two query logs end up holding the same entries.
func TestHandlerMatchesTreeOracle(t *testing.T) {
	flat, _ := testAuthority(t)
	tree, _ := testAuthority(t)
	for _, a := range []*Authority{flat, tree} {
		a.SetFallback(func(name string) Rule {
			if len(name) > 3 && name[:3] == "u-7" {
				return Always(landingIP)
			}
			return nil
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
		got, want := handle(src, wire), oracleHandle(tree, src, wire)
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
