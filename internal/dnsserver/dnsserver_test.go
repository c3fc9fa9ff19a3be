package dnsserver

import (
	"bytes"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"

	"github.com/tftproject/tft/internal/dnswire"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/simnet"
)

var (
	t0        = time.Date(2016, 4, 13, 0, 0, 0, 0, time.UTC)
	webIP     = netip.MustParseAddr("198.51.100.10")
	authIP    = netip.MustParseAddr("198.51.100.53")
	landingIP = netip.MustParseAddr("198.51.100.99")
	superDNS  = geo.SuperProxyResolverEgress
	nodeIP    = netip.MustParseAddr("91.5.4.3")
	ispDNSIP  = netip.MustParseAddr("91.5.0.53")
)

// The test authority's rules, each built once: a policy that built its
// rules per query would count against the allocation ceilings.
var (
	d1Rule = Always(webIP)
	d2Rule = OnlyFrom(webIP, func(src netip.Addr) bool { return src == superDNS })
)

// testPolicy is the §4.1 pair: d1 answered for everyone, d2 for the super
// proxy's resolver alone, every other name NXDOMAIN.
func testPolicy(name string) Rule {
	switch name {
	case "d1.probe.tft-example.net.":
		return d1Rule
	case "d2.probe.tft-example.net.":
		return d2Rule
	}
	return nil
}

func testAuthority(t *testing.T) (*Authority, *simnet.Virtual) {
	t.Helper()
	clock := simnet.NewVirtual(t0)
	a := NewAuthority("probe.tft-example.net", clock)
	a.SetFallback(testPolicy)
	return a, clock
}

func lookupA(t *testing.T, a *Authority, src netip.Addr, name string) *dnswire.Message {
	t.Helper()
	q := dnswire.NewQuery(1, name, dnswire.TypeA)
	wire, err := q.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	respWire := a.Handler()(src, wire)
	if respWire == nil {
		t.Fatalf("query for %s dropped", name)
	}
	resp, err := dnswire.Unmarshal(respWire)
	if err != nil {
		t.Fatalf("reply for %s does not decode: %v", name, err)
	}
	return resp
}

func TestD1AlwaysAnswers(t *testing.T) {
	a, _ := testAuthority(t)
	for _, src := range []netip.Addr{superDNS, ispDNSIP, nodeIP} {
		resp := lookupA(t, a, src, "d1.probe.tft-example.net")
		if resp.RCode != dnswire.RCodeSuccess || len(resp.Answers) != 1 || resp.Answers[0].A != webIP {
			t.Fatalf("d1 from %v: %+v", src, resp)
		}
	}
}

func TestD2ConditionalGate(t *testing.T) {
	a, _ := testAuthority(t)
	// The super proxy's resolver gets an answer (so the proxy forwards the
	// request)...
	resp := lookupA(t, a, superDNS, "d2.probe.tft-example.net")
	if resp.RCode != dnswire.RCodeSuccess {
		t.Fatalf("super proxy egress got %v", resp.RCode)
	}
	// ...every other resolver gets NXDOMAIN with an SOA.
	resp = lookupA(t, a, ispDNSIP, "d2.probe.tft-example.net")
	if resp.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("ISP resolver got %v", resp.RCode)
	}
	if len(resp.Authorities) != 1 || resp.Authorities[0].Type != dnswire.TypeSOA {
		t.Fatalf("NXDOMAIN without SOA: %+v", resp.Authorities)
	}
}

func TestUnknownNameNXDomain(t *testing.T) {
	a, _ := testAuthority(t)
	resp := lookupA(t, a, nodeIP, "never-configured.probe.tft-example.net")
	if resp.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("RCode = %v", resp.RCode)
	}
}

func TestOutOfZoneRefused(t *testing.T) {
	a, _ := testAuthority(t)
	resp := lookupA(t, a, nodeIP, "www.google.com")
	if resp.RCode != dnswire.RCodeRefused {
		t.Fatalf("RCode = %v", resp.RCode)
	}
}

func TestQueryLogRecordsSourceAndTime(t *testing.T) {
	a, clock := testAuthority(t)
	lookupA(t, a, ispDNSIP, "d2.probe.tft-example.net")
	clock.Advance(30 * time.Second)
	lookupA(t, a, superDNS, "d2.probe.tft-example.net")
	qs := a.QueriesFor("d2.probe.tft-example.net")
	if len(qs) != 2 {
		t.Fatalf("logged %d queries", len(qs))
	}
	if qs[0].Src != ispDNSIP || qs[1].Src != superDNS {
		t.Fatalf("sources = %v %v", qs[0].Src, qs[1].Src)
	}
	if !qs[1].Time.Equal(t0.Add(30 * time.Second)) {
		t.Fatalf("second query time = %v", qs[1].Time)
	}
	if a.QueryCount() != 2 {
		t.Fatalf("QueryCount = %d", a.QueryCount())
	}
}

func TestMalformedQueryDropped(t *testing.T) {
	a, _ := testAuthority(t)
	if resp := a.Handler()(nodeIP, []byte("garbage")); resp != nil {
		t.Fatal("garbage produced a response")
	}
	// A response message must not be answered either.
	r := dnswire.NewQuery(1, "d1.probe.tft-example.net", dnswire.TypeA).Reply()
	wire, _ := r.Marshal()
	if resp := a.Handler()(nodeIP, wire); resp != nil {
		t.Fatal("response message was answered")
	}
}

// TestSetFallbackIsTheWholePolicy: with no policy, or where the policy's
// rule for a name is nil, every in-zone name is NXDOMAIN with the zone's
// SOA; a second SetFallback replaces the first whole, so a name only the
// first answered is NXDOMAIN after it.
func TestSetFallbackIsTheWholePolicy(t *testing.T) {
	a := NewAuthority("probe.tft-example.net", simnet.NewVirtual(t0))
	check := func(stage string, src netip.Addr, name string, want dnswire.RCode) {
		t.Helper()
		resp := lookupA(t, a, src, name)
		if resp.RCode != want {
			t.Fatalf("%s: %s from %v answered %v, want %v", stage, name, src, resp.RCode, want)
		}
		if want == dnswire.RCodeNXDomain && (len(resp.Authorities) != 1 || resp.Authorities[0].Type != dnswire.TypeSOA) {
			t.Fatalf("%s: NXDOMAIN for %s carries %+v, want the SOA", stage, name, resp.Authorities)
		}
	}
	const d1, d2 = "d1.probe.tft-example.net", "d2.probe.tft-example.net"
	check("no policy", superDNS, d1, dnswire.RCodeNXDomain)
	a.SetFallback(testPolicy)
	check("test policy", nodeIP, d1, dnswire.RCodeSuccess)
	check("nil rule", superDNS, "never-configured.probe.tft-example.net", dnswire.RCodeNXDomain)
	landing := Always(landingIP)
	a.SetFallback(func(name string) Rule {
		if name == d2+"." {
			return landing
		}
		return nil
	})
	check("replaced", superDNS, d1, dnswire.RCodeNXDomain)
	check("replaced", nodeIP, d2, dnswire.RCodeSuccess)
	a.SetFallback(nil)
	check("nil policy", nodeIP, d2, dnswire.RCodeNXDomain)
}

// fabricWorld wires an authority and resolvers onto a fabric.
func fabricWorld(t *testing.T) (*simnet.Fabric, *Authority) {
	t.Helper()
	f := simnet.NewFabric()
	a, _ := testAuthority(t)
	f.HandleDNS(authIP, a.Handler())
	return f, a
}

func upstreamAll(name string) (netip.Addr, bool) { return authIP, true }

func TestHonestResolverPassesNXDomain(t *testing.T) {
	f, _ := fabricWorld(t)
	r := NewResolver(ispDNSIP, f, upstreamAll)
	resp, err := r.Lookup(nodeIP, "d2.probe.tft-example.net", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("RCode = %v", resp.RCode)
	}
}

func TestHonestResolverEgressIsItsAddr(t *testing.T) {
	f, a := fabricWorld(t)
	r := NewResolver(ispDNSIP, f, upstreamAll)
	if _, err := r.Lookup(nodeIP, "d1.probe.tft-example.net", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	qs := a.QueriesFor("d1.probe.tft-example.net")
	if len(qs) != 1 || qs[0].Src != ispDNSIP {
		t.Fatalf("authority saw %+v", qs)
	}
}

func TestHijackingResolverRewritesNXDomain(t *testing.T) {
	f, _ := fabricWorld(t)
	r := NewResolver(ispDNSIP, f, upstreamAll)
	r.NXLanding = landingIP
	resp, err := r.Lookup(nodeIP, "d2.probe.tft-example.net", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeSuccess {
		t.Fatalf("hijacked RCode = %v", resp.RCode)
	}
	if resp.A != landingIP || resp.TTL != 300 {
		t.Fatalf("answer = %+v", resp)
	}
}

func TestHijackingResolverLeavesSuccessAlone(t *testing.T) {
	f, _ := fabricWorld(t)
	r := NewResolver(ispDNSIP, f, upstreamAll)
	r.NXLanding = landingIP
	resp, err := r.Lookup(nodeIP, "d1.probe.tft-example.net", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeSuccess || resp.A != webIP {
		t.Fatalf("valid answer modified: %+v", resp)
	}
}

func TestGoogleResolverEgressVariesByClient(t *testing.T) {
	f, a := fabricWorld(t)
	g := NewGoogleResolver(f, upstreamAll)
	clients := []netip.Addr{
		netip.MustParseAddr("91.5.4.3"),
		netip.MustParseAddr("14.102.9.77"),
		netip.MustParseAddr("200.45.3.2"),
		netip.MustParseAddr("41.86.1.9"),
	}
	for _, c := range clients {
		if _, err := g.Lookup(c, "d1.probe.tft-example.net", dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
	}
	qs := a.QueriesFor("d1.probe.tft-example.net")
	egress := make(map[netip.Addr]bool)
	for _, q := range qs {
		if !geo.IsGoogleEgress(q.Src) {
			t.Fatalf("Google query egressed from %v", q.Src)
		}
		egress[q.Src] = true
	}
	if len(egress) < 2 {
		t.Fatalf("all clients shared one egress instance: %v", egress)
	}
}

func TestResolverNoUpstreamServFail(t *testing.T) {
	f, _ := fabricWorld(t)
	r := NewResolver(ispDNSIP, f, func(string) (netip.Addr, bool) { return netip.Addr{}, false })
	resp, err := r.Lookup(nodeIP, "anything.example", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeServFail {
		t.Fatalf("RCode = %v", resp.RCode)
	}
}

// TestLookupFromAnyClientAddress: the query ID hashes whatever client
// address it is given — an IPv6 exit node (cmd/exitnode -ip 2001:db8::1)
// and the zero address get the authority's answer instead of a panic, and
// an IPv4-mapped client keeps its IPv4 query ID.
func TestLookupFromAnyClientAddress(t *testing.T) {
	f, _ := fabricWorld(t)
	r := NewResolver(ispDNSIP, f, upstreamAll)
	for _, client := range []netip.Addr{netip.MustParseAddr("2001:db8::1"), {}} {
		ans, err := r.Lookup(client, "d1.probe.tft-example.net", dnswire.TypeA)
		if err != nil || ans.RCode != dnswire.RCodeSuccess || ans.A != webIP {
			t.Fatalf("lookup from %v = %+v, %v", client, ans, err)
		}
	}
	mapped := netip.AddrFrom16(nodeIP.As16())
	if a, b := queryID(nodeIP, "d1.probe.tft-example.net"), queryID(mapped, "d1.probe.tft-example.net"); a != b {
		t.Fatalf("query id %#04x from %v, %#04x from %v", a, nodeIP, b, mapped)
	}
}

// TestReplyEchoesQuestionAsSent: both responders copy the question into
// their reply as it arrived, upper case included, where the tree they
// replaced re-encoded it lower-case; every pointer in the reply lands in that
// copy, and the authority logs the name in canonical form.
func TestReplyEchoesQuestionAsSent(t *testing.T) {
	a, _ := testAuthority(t)
	f := simnet.NewFabric()
	f.HandleDNS(authIP, a.Handler())
	resolver := NewResolver(ispDNSIP, f, upstreamAll).Handler(nil)
	for _, tc := range []struct {
		name  string
		rcode dnswire.RCode
		a     netip.Addr
	}{
		{"D1.Probe.TFT-Example.Net", dnswire.RCodeSuccess, webIP},
		{"Never-Configured.PROBE.tft-example.NET", dnswire.RCodeNXDomain, netip.Addr{}},
		{"www.Google.com", dnswire.RCodeRefused, netip.Addr{}},
	} {
		query, err := dnswire.AppendQuery(nil, 5, "x", dnswire.TypeA)
		if err != nil {
			t.Fatal(err)
		}
		// AppendQuery lower-cases; write the mixed-case name by hand.
		query = query[:12]
		for _, l := range strings.Split(tc.name, ".") {
			query = append(append(query, byte(len(l))), l...)
		}
		query = append(query, 0, 0, byte(dnswire.TypeA), 0, byte(dnswire.ClassIN))
		for who, handle := range map[string]simnet.DNSHandler{"authority": a.Handler(), "resolver": resolver} {
			resp := handle(nodeIP, query)
			if resp == nil || !bytes.Equal(resp[12:len(query)], query[12:]) {
				t.Fatalf("%s's reply to %s: %x, question not as sent (%x)", who, tc.name, resp, query[12:])
			}
			m, err := dnswire.Unmarshal(resp)
			if err != nil || m.Questions[0].Name != tc.name+"." || m.RCode != tc.rcode {
				t.Fatalf("%s's reply to %s decodes to %+v, %v", who, tc.name, m, err)
			}
			if tc.rcode == dnswire.RCodeSuccess && m.Answers[0].Name != tc.name+"." {
				t.Fatalf("%s's answer is owned by %q", who, m.Answers[0].Name)
			}
			if who == "authority" && tc.rcode == dnswire.RCodeNXDomain {
				soa := m.Authorities[0]
				if soa.Name != "PROBE.tft-example.NET." || soa.SOA.MName != "ns1.PROBE.tft-example.NET." ||
					soa.SOA.RName != "hostmaster.PROBE.tft-example.NET." {
					t.Fatalf("the SOA points elsewhere than the question's zone: %+v %+v", soa, *soa.SOA)
				}
			}
			ans, err := dnswire.ParseAnswer(resp, 5, tc.name, dnswire.TypeA)
			if err != nil || ans.RCode != tc.rcode || ans.A != tc.a {
				t.Fatalf("%s's reply to %s reads %+v, %v", who, tc.name, ans, err)
			}
		}
	}
	if got := a.QueriesFor("d1.probe.tft-example.net"); len(got) != 2 || got[0].Name != "d1.probe.tft-example.net." {
		t.Fatalf("the log holds %+v for d1", got)
	}
}

// TestQuestionPointerDropped: a query whose question name ends in a
// compression pointer — to the zero QDCOUNT high byte, the root — is one
// ParseQuery accepts, and both responders drop it: copied into the reply as
// it stands, the pointer would point into the reply's header.
func TestQuestionPointerDropped(t *testing.T) {
	query := []byte{0x12, 0x34, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 2, 'd', '1', 0xC0, 4, 0, 1, 0, 1}
	if _, q, err := dnswire.ParseQuery(query); err != nil || q.Name != "d1." {
		t.Fatalf("ParseQuery = %+v, %v; the query should be well-formed", q, err)
	}
	f, a := fabricWorld(t)
	for who, handle := range map[string]simnet.DNSHandler{
		"authority":         a.Handler(),
		"resolver":          NewResolver(ispDNSIP, f, upstreamAll).Handler(nil),
		"refusing resolver": NewResolver(ispDNSIP, f, upstreamAll).Handler(func(netip.Addr) bool { return false }),
	} {
		if resp := handle(nodeIP, query); resp != nil {
			t.Errorf("%s answered a question with a pointer: %x", who, resp)
		}
	}
}

// TestUDPResolverEgress: over real UDP on loopback, NewUDPResolver binds a
// valid egress as the source of its queries, so it is the Src the authority
// logs; the zero egress binds nothing and the operating system picks the
// source, which is neither the egress nor the resolver's own address.
func TestUDPResolverEgress(t *testing.T) {
	egress := netip.MustParseAddr("127.0.0.2")
	probe, err := net.ListenPacket("udp", netip.AddrPortFrom(egress, 0).String())
	if err != nil {
		t.Skipf("SKIPPED: cannot bind %v on this host: %v", egress, err)
	}
	probe.Close()
	a, _ := testAuthority(t)
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("SKIPPED: cannot listen on 127.0.0.1 on this host: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ServeUDP(pc, a.Handler())
	}()
	defer func() {
		pc.Close()
		<-done
	}()
	server := pc.LocalAddr().(*net.UDPAddr).AddrPort()
	resolverAddr := netip.MustParseAddr("127.0.0.3")
	const name = "d1.probe.tft-example.net"
	for _, tc := range []struct {
		why    string
		egress netip.Addr
	}{{"bound egress", egress}, {"zero egress", netip.Addr{}}} {
		r := NewUDPResolver(resolverAddr, server, tc.egress)
		ans, err := r.Lookup(nodeIP, name, dnswire.TypeA)
		if err != nil || ans.RCode != dnswire.RCodeSuccess || ans.A != webIP {
			t.Fatalf("%s: Lookup = %+v, %v", tc.why, ans, err)
		}
		logged := a.QueriesFor(name)
		a.Forget(name)
		if len(logged) != 1 {
			t.Fatalf("%s: the authority logged %+v", tc.why, logged)
		}
		src := logged[0].Src
		switch {
		case tc.egress.IsValid() && src != tc.egress:
			t.Errorf("%s: the authority saw %v, want the egress %v", tc.why, src, tc.egress)
		case !tc.egress.IsValid() && (!src.IsLoopback() || src == egress || src == resolverAddr):
			t.Errorf("%s: the authority saw %v; the source was not left to the system", tc.why, src)
		}
	}
}

func TestResolverUnreachableAuthorityServFail(t *testing.T) {
	f := simnet.NewFabric()
	r := NewResolver(ispDNSIP, f, upstreamAll) // authIP not registered
	resp, err := r.Lookup(nodeIP, "d1.probe.tft-example.net", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeServFail {
		t.Fatalf("RCode = %v", resp.RCode)
	}
}

func TestServeUDPEndToEnd(t *testing.T) {
	for _, listen := range []string{"127.0.0.1:0", "[::1]:0"} {
		t.Run(listen, func(t *testing.T) { serveUDPEndToEnd(t, listen) })
	}
}

// serveUDPEndToEnd runs one exchange through UDPExchanger against ServeUDP
// listening at listen — an IPv6 server is dialled as [addr]:port — and
// checks that ServeUDP returns once its socket is closed. A host without
// that loopback address skips, saying so.
func serveUDPEndToEnd(t *testing.T, listen string) {
	a, _ := testAuthority(t)
	pc, err := net.ListenPacket("udp", listen)
	if err != nil {
		t.Skipf("SKIPPED: cannot listen on %s on this host: %v", listen, err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ServeUDP(pc, a.Handler())
	}()
	q := dnswire.NewQuery(77, "d1.probe.tft-example.net", dnswire.TypeA)
	wire, _ := q.Marshal()
	server := pc.LocalAddr().(*net.UDPAddr).AddrPort()
	respWire, err := (&UDPExchanger{Port: server.Port()}).
		ExchangeDNS(netip.Addr{}, server.Addr(), wire)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnswire.Unmarshal(respWire)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 77 || len(resp.Answers) != 1 || resp.Answers[0].A != webIP {
		t.Fatalf("UDP response = %+v", resp)
	}
	pc.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("ServeUDP did not exit on close")
	}
}

// staleNet is a network on which every reply arrives one exchange late: the
// caller is handed the datagram that answered the query before its own, as a
// late duplicate on a real socket would be — in a buffer of its own, since
// the reply the fabric returns may lie in the recycled query datagram.
type staleNet struct {
	net  Exchanger
	last []byte
}

func (s *staleNet) ExchangeDNS(src, dst netip.Addr, query []byte) ([]byte, error) {
	resp, err := s.net.ExchangeDNS(src, dst, query)
	resp, s.last = s.last, bytes.Clone(resp)
	return resp, err
}

// TestLookupRejectsAnotherQuerysAnswer: a datagram that is well-formed but
// answers another name, carries another ID, or is no response at all is not
// this lookup's verdict. The d1 answer handed to the d2 lookup would
// otherwise read as "d2 resolves".
func TestLookupRejectsAnotherQuerysAnswer(t *testing.T) {
	f, _ := fabricWorld(t)
	stale := &staleNet{net: f}
	r := NewResolver(ispDNSIP, stale, upstreamAll)
	if _, err := r.Lookup(nodeIP, "d1.probe.tft-example.net", dnswire.TypeA); err != nil {
		t.Fatal(err) // nothing to hand back yet: SERVFAIL, and d1's answer is now in flight
	}
	ans, err := r.Lookup(nodeIP, "d2.probe.tft-example.net", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if ans != (dnswire.Answer{RCode: dnswire.RCodeServFail}) {
		t.Fatalf("d2 lookup handed d1's answer returned %+v, want SERVFAIL", ans)
	}

	// The same name from another client is another query ID.
	stale.last = nil
	r.Lookup(nodeIP, "d1.probe.tft-example.net", dnswire.TypeA)
	if ans, _ := r.Lookup(superDNS, "d1.probe.tft-example.net", dnswire.TypeA); ans.RCode != dnswire.RCodeServFail {
		t.Fatalf("answer to another ID returned %+v, want SERVFAIL", ans)
	}

	// A query reflected back is not a response; the echo differing only in
	// case and the trailing dot is this query's answer.
	reflect := exchangerFunc(func(_, _ netip.Addr, query []byte) ([]byte, error) { return bytes.Clone(query), nil })
	if ans, _ := NewResolver(ispDNSIP, reflect, upstreamAll).Lookup(nodeIP, "d1.probe.tft-example.net", dnswire.TypeA); ans.RCode != dnswire.RCodeServFail {
		t.Fatalf("reflected query returned %+v, want SERVFAIL", ans)
	}
	if ans, _ := NewResolver(ispDNSIP, f, upstreamAll).Lookup(nodeIP, "D1.Probe.TFT-example.net.", dnswire.TypeA); ans.A != webIP {
		t.Fatalf("lower-cased echo of a mixed-case name returned %+v", ans)
	}
}

type exchangerFunc func(src, dst netip.Addr, query []byte) ([]byte, error)

func (f exchangerFunc) ExchangeDNS(src, dst netip.Addr, query []byte) ([]byte, error) {
	return f(src, dst, query)
}

// TestTakeIsReadThenForget: Take hands over what QueriesFor would read, in
// arrival order and appended to the caller's slice, and leaves what Forget
// would: nothing for the name, the count unchanged, and a second Take that
// adds nothing. Into a slice with room it allocates nothing.
func TestTakeIsReadThenForget(t *testing.T) {
	a, _ := testAuthority(t)
	const name = "d1.probe.tft-example.net"
	ask := func() {
		lookupA(t, a, superDNS, name)
		lookupA(t, a, ispDNSIP, name)
	}
	ask()
	want := a.QueriesFor(name)
	if len(want) != 2 {
		t.Fatalf("QueriesFor = %+v, want two queries", want)
	}
	var held [4]Query
	held[0] = Query{Name: "already held"}
	got := a.Take(name+".", held[:1])
	if len(got) != 3 || got[0] != held[0] || got[1] != want[0] || got[2] != want[1] || &got[0] != &held[0] {
		t.Fatalf("Take = %+v, want %+v after the held entry, in the caller's array", got, want)
	}
	if q := a.QueriesFor(name); len(q) != 0 {
		t.Fatalf("after Take the log still holds %+v", q)
	}
	if again := a.Take(name, held[:0]); len(again) != 0 {
		t.Fatalf("a second Take = %+v, want nothing", again)
	}
	if n := a.QueryCount(); n != 2 {
		t.Fatalf("QueryCount after Take = %d, want 2", n)
	}
	if raceEnabled {
		return
	}
	fqdn := name + "." // as a crawl names it: canonical already
	canonical := []byte(fqdn)
	if allocs := testing.AllocsPerRun(100, func() {
		a.record(Query{Src: superDNS, Type: dnswire.TypeA}, canonical)
		if len(a.Take(fqdn, held[:0])) != 1 {
			t.Fatal("Take lost the query")
		}
	}); allocs > 1 {
		t.Errorf("record and Take allocate %.0f times, want 1: the logged name", allocs)
	}
}
