package dnswire

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestQueryRoundTrip(t *testing.T) {
	q := NewQuery(0x1234, "node-1.probe.tft-example.net", TypeA)
	wire, err := q.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 0x1234 || got.Response || !got.RecursionDesired {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Questions) != 1 {
		t.Fatalf("questions = %d", len(got.Questions))
	}
	if got.Questions[0].Name != "node-1.probe.tft-example.net." {
		t.Fatalf("name = %q", got.Questions[0].Name)
	}
	if got.Questions[0].Type != TypeA || got.Questions[0].Class != ClassIN {
		t.Fatalf("question = %+v", got.Questions[0])
	}
}

func TestResponseWithARecord(t *testing.T) {
	q := NewQuery(7, "d1.example.org", TypeA)
	r := q.Reply()
	r.Authoritative = true
	r.Answers = append(r.Answers, Record{
		Name: "d1.example.org", Type: TypeA, Class: ClassIN, TTL: 60,
		A: netip.MustParseAddr("192.0.2.10"),
	})
	wire, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Response || !got.Authoritative || got.RCode != RCodeSuccess {
		t.Fatalf("header: %+v", got)
	}
	if len(got.Answers) != 1 || got.Answers[0].A != netip.MustParseAddr("192.0.2.10") {
		t.Fatalf("answers: %+v", got.Answers)
	}
	if got.Answers[0].TTL != 60 {
		t.Fatalf("TTL = %d", got.Answers[0].TTL)
	}
}

func TestNXDomainRoundTrip(t *testing.T) {
	q := NewQuery(9, "d2.example.org", TypeA)
	r := q.Reply()
	r.RCode = RCodeNXDomain
	r.Authorities = append(r.Authorities, Record{
		Name: "example.org", Type: TypeSOA, Class: ClassIN, TTL: 300,
		SOA: &SOAData{MName: "ns1.example.org", RName: "hostmaster.example.org",
			Serial: 2016041301, Refresh: 7200, Retry: 900, Expire: 1209600, MinTTL: 300},
	})
	wire, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.RCode != RCodeNXDomain {
		t.Fatalf("RCode = %v", got.RCode)
	}
	soa := got.Authorities[0].SOA
	if soa == nil || soa.Serial != 2016041301 || soa.MName != "ns1.example.org." {
		t.Fatalf("SOA = %+v", soa)
	}
}

func TestCNAMEAndNS(t *testing.T) {
	m := &Message{ID: 3, Response: true}
	m.Questions = []Question{{Name: "www.example.org", Type: TypeA, Class: ClassIN}}
	m.Answers = []Record{
		{Name: "www.example.org", Type: TypeCNAME, Class: ClassIN, TTL: 30, Target: "cdn.example.org"},
		{Name: "cdn.example.org", Type: TypeA, Class: ClassIN, TTL: 30, A: netip.MustParseAddr("198.51.100.4")},
	}
	m.Authorities = []Record{
		{Name: "example.org", Type: TypeNS, Class: ClassIN, TTL: 86400, Target: "ns1.example.org"},
	}
	wire, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Answers[0].Target != "cdn.example.org." {
		t.Fatalf("CNAME target = %q", got.Answers[0].Target)
	}
	if got.Authorities[0].Target != "ns1.example.org." {
		t.Fatalf("NS target = %q", got.Authorities[0].Target)
	}
}

func TestTXTMultipleStrings(t *testing.T) {
	m := &Message{ID: 5, Response: true}
	m.Answers = []Record{{Name: "t.example.org", Type: TypeTXT, Class: ClassIN, TTL: 10,
		Text: []string{"hello", "", strings.Repeat("x", 255)}}}
	wire, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Answers[0].Text, m.Answers[0].Text) {
		t.Fatalf("TXT = %q", got.Answers[0].Text)
	}
}

func TestTXTStringTooLong(t *testing.T) {
	m := &Message{Answers: []Record{{Name: "t.example.org", Type: TypeTXT, Class: ClassIN,
		Text: []string{strings.Repeat("x", 256)}}}}
	if _, err := m.Marshal(); err == nil {
		t.Fatal("overlong TXT string accepted")
	}
}

func TestCompressionShrinksAndRoundTrips(t *testing.T) {
	m := &Message{ID: 11, Response: true}
	m.Questions = []Question{{Name: "a.very.long.subdomain.of.example.org", Type: TypeA, Class: ClassIN}}
	for i := 0; i < 10; i++ {
		m.Answers = append(m.Answers, Record{
			Name: "a.very.long.subdomain.of.example.org", Type: TypeA, Class: ClassIN, TTL: 1,
			A: netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}),
		})
	}
	wire, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Uncompressed, each answer would repeat the 38-byte name; compressed,
	// answers after the question use a 2-byte pointer.
	if len(wire) > 12+44+10*(2+14) {
		t.Fatalf("message not compressed: %d bytes", len(wire))
	}
	got, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range got.Answers {
		if a.Name != "a.very.long.subdomain.of.example.org." {
			t.Fatalf("decompressed name = %q", a.Name)
		}
	}
}

func TestPointerLoopRejected(t *testing.T) {
	// Hand-craft a message whose question name is a self-pointer.
	wire := make([]byte, 16)
	wire[4], wire[5] = 0, 1 // QDCOUNT=1
	wire[12] = 0xC0
	wire[13] = 12 // pointer to itself
	_, err := Unmarshal(wire)
	if !errors.Is(err, ErrPointerLoop) {
		t.Fatalf("err = %v, want ErrPointerLoop", err)
	}
}

func TestTruncatedInputs(t *testing.T) {
	q := NewQuery(1, "abc.example.org", TypeA)
	wire, _ := q.Marshal()
	for cut := 0; cut < len(wire); cut++ {
		if _, err := Unmarshal(wire[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestUnmarshalGarbageNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(64)
		buf := make([]byte, n)
		rng.Read(buf)
		Unmarshal(buf) // must not panic
	}
}

func TestLabelTooLong(t *testing.T) {
	m := NewQuery(1, strings.Repeat("a", 64)+".example.org", TypeA)
	if _, err := m.Marshal(); !errors.Is(err, ErrLabelTooLong) {
		t.Fatalf("err = %v, want ErrLabelTooLong", err)
	}
}

func TestNameTooLong(t *testing.T) {
	long := strings.Repeat("abcdefgh.", 32) + "example.org"
	m := NewQuery(1, long, TypeA)
	if _, err := m.Marshal(); !errors.Is(err, ErrNameTooLong) {
		t.Fatalf("err = %v, want ErrNameTooLong", err)
	}
}

func TestCanonicalName(t *testing.T) {
	cases := map[string]string{
		"Example.ORG":   "example.org.",
		"example.org.":  "example.org.",
		"":              ".",
		" example.org ": "example.org.",
	}
	for in, want := range cases {
		if got := CanonicalName(in); got != want {
			t.Errorf("CanonicalName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestIsSubdomain(t *testing.T) {
	if !IsSubdomain("a.b.example.org", "example.org") {
		t.Error("subdomain not detected")
	}
	if !IsSubdomain("example.org", "example.org.") {
		t.Error("self not detected")
	}
	if IsSubdomain("notexample.org", "example.org") {
		t.Error("suffix-collision false positive")
	}
	if !IsSubdomain("anything.at.all", ".") {
		t.Error("root should contain everything")
	}
}

func TestReplyEchoesQuestion(t *testing.T) {
	q := NewQuery(99, "q.example.org", TypeTXT)
	r := q.Reply()
	if !r.Response || r.ID != 99 || len(r.Questions) != 1 || r.Questions[0].Name != "q.example.org" {
		t.Fatalf("Reply = %+v", r)
	}
}

// randName builds a random valid domain name from a fuzz seed.
func randName(rng *rand.Rand) string {
	labels := 1 + rng.Intn(4)
	parts := make([]string, labels)
	for i := range parts {
		n := 1 + rng.Intn(12)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		parts[i] = string(b)
	}
	return strings.Join(parts, ".")
}

// Property: any well-formed message round-trips through Marshal/Unmarshal
// preserving header bits, questions, and answers.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := &Message{
			ID:               uint16(rng.Uint32()),
			Response:         rng.Intn(2) == 0,
			Authoritative:    rng.Intn(2) == 0,
			RecursionDesired: rng.Intn(2) == 0,
			RCode:            RCode(rng.Intn(6)),
		}
		for i := 0; i < 1+rng.Intn(3); i++ {
			m.Questions = append(m.Questions, Question{Name: randName(rng), Type: TypeA, Class: ClassIN})
		}
		for i := 0; i < rng.Intn(5); i++ {
			switch rng.Intn(3) {
			case 0:
				m.Answers = append(m.Answers, Record{Name: randName(rng), Type: TypeA, Class: ClassIN,
					TTL: rng.Uint32(), A: netip.AddrFrom4([4]byte{byte(rng.Intn(256)), 1, 2, 3})})
			case 1:
				m.Answers = append(m.Answers, Record{Name: randName(rng), Type: TypeCNAME, Class: ClassIN,
					TTL: rng.Uint32(), Target: randName(rng)})
			default:
				m.Answers = append(m.Answers, Record{Name: randName(rng), Type: TypeTXT, Class: ClassIN,
					TTL: rng.Uint32(), Text: []string{randName(rng)}})
			}
		}
		wire, err := m.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(wire)
		if err != nil {
			return false
		}
		if got.ID != m.ID || got.Response != m.Response || got.RCode != m.RCode ||
			got.Authoritative != m.Authoritative || got.RecursionDesired != m.RecursionDesired {
			return false
		}
		if len(got.Questions) != len(m.Questions) || len(got.Answers) != len(m.Answers) {
			return false
		}
		for i, q := range m.Questions {
			if got.Questions[i].Name != CanonicalName(q.Name) || got.Questions[i].Type != q.Type {
				return false
			}
		}
		for i, a := range m.Answers {
			g := got.Answers[i]
			if g.Name != CanonicalName(a.Name) || g.Type != a.Type || g.TTL != a.TTL {
				return false
			}
			switch a.Type {
			case TypeA:
				if g.A != a.A {
					return false
				}
			case TypeCNAME:
				if g.Target != CanonicalName(a.Target) {
					return false
				}
			case TypeTXT:
				if !reflect.DeepEqual(g.Text, a.Text) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Marshal output is deterministic.
func TestPropertyMarshalDeterministic(t *testing.T) {
	f := func(id uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewQuery(id, randName(rng), TypeA)
		w1, err1 := m.Marshal()
		w2, err2 := m.Marshal()
		return err1 == nil && err2 == nil && bytes.Equal(w1, w2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTypeAndRCodeStrings(t *testing.T) {
	if TypeA.String() != "A" || TypeSOA.String() != "SOA" || Type(99).String() != "TYPE99" {
		t.Error("Type.String mismatch")
	}
	if RCodeNXDomain.String() != "NXDOMAIN" || RCode(9).String() != "RCODE9" {
		t.Error("RCode.String mismatch")
	}
}

// TestCompTableMatchesMap: the fixed table, and the map it spills into past
// compInline entries, answer exactly as the map alone would.
func TestCompTableMatchesMap(t *testing.T) {
	var c compTable
	ref := map[string]int{}
	for i := 0; i < 3*compInline; i++ {
		s := fmt.Sprintf("l%d.example.org", i)
		if off, ok := c.lookup(s); ok {
			t.Fatalf("%q found at %d before it was added", s, off)
		}
		c.add(s, 12+i)
		ref[s] = 12 + i
		for k, want := range ref {
			if off, ok := c.lookup(k); !ok || off != want {
				t.Fatalf("after %d adds: lookup(%q) = %d, %v; want %d", i+1, k, off, ok, want)
			}
		}
	}
	if c.n != compInline || len(c.more) != 2*compInline {
		t.Fatalf("table holds %d inline, %d spilled", c.n, len(c.more))
	}
}

// TestCompressionPastInlineTable: a suffix first written after the fixed
// table filled is still found, and a later use of it is a 2-byte pointer.
func TestCompressionPastInlineTable(t *testing.T) {
	build := func(extra bool) *Message {
		m := &Message{ID: 5, Response: true}
		for i := 0; i < 12; i++ { // two new suffixes a record, plus "example."
			m.Answers = append(m.Answers, Record{
				Name: fmt.Sprintf("n%d.z%d.example", i, i), Type: TypeA, Class: ClassIN, TTL: 1,
				A: netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}),
			})
		}
		if extra {
			m.Answers = append(m.Answers, Record{Name: "n11.z11.example", Type: TypeA, Class: ClassIN, TTL: 1,
				A: netip.AddrFrom4([4]byte{10, 0, 0, 99})})
		}
		return m
	}
	base, err := build(false).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	wire, err := build(true).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(wire)-len(base), 2+10+4; got != want {
		t.Fatalf("repeated name took %d bytes, want %d (pointer + fixed fields + address)", got, want)
	}
	got, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if n := got.Answers[12].Name; n != "n11.z11.example." {
		t.Fatalf("decompressed name = %q", n)
	}
}

// TestOneRecordMessageIsOneAllocation: a reply given one answer, and a
// decoded response carrying one, keep question and record in the message's
// own allocation, and the decoded answer's owner name is the question's
// string, not a second copy.
func TestOneRecordMessageIsOneAllocation(t *testing.T) {
	q := NewQuery(7, "d1-s1.probe.example.", TypeA)
	rec := Record{Name: "d1-s1.probe.example.", Type: TypeA, Class: ClassIN, TTL: 5, A: netip.AddrFrom4([4]byte{192, 0, 2, 1})}
	var r *Message
	if n := testing.AllocsPerRun(100, func() {
		r = q.Reply()
		r.Answers = append(r.Answers, rec)
	}); n != 1 {
		t.Errorf("Reply + one answer allocates %.0f times, want 1", n)
	}
	wire, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var got *Message
	if n := testing.AllocsPerRun(100, func() { got, err = Unmarshal(wire) }); n != 2 {
		t.Errorf("Unmarshal allocates %.0f times, want 2 (message, question name)", n)
	}
	if err != nil || len(got.Answers) != 1 || got.Answers[0].Name != rec.Name || got.Answers[0].A != rec.A {
		t.Fatalf("decoded %+v, %v", got, err)
	}
	if unsafe.StringData(got.Answers[0].Name) != unsafe.StringData(got.Questions[0].Name) {
		t.Error("answer's owner name is a separate string from the question's")
	}
}

// TestParseAnswerMatchesItsQuery: ParseAnswer reads the first A record at no
// allocation, and a well-formed datagram that is not the response to (id,
// name, type) is ErrNotMyAnswer.
func TestParseAnswerMatchesItsQuery(t *testing.T) {
	web := netip.AddrFrom4([4]byte{198, 51, 100, 10})
	r := NewQuery(7, "d1-s1.probe.example", TypeA).Reply()
	r.Answers = append(r.Answers, Record{Name: "d1-s1.probe.example", Type: TypeA, Class: ClassIN, TTL: 5, A: web})
	wire, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	query, _ := NewQuery(7, "d1-s1.probe.example", TypeA).Marshal()

	var ans Answer
	if n := testing.AllocsPerRun(100, func() { ans, err = ParseAnswer(wire, 7, "D1-s1.Probe.example.", TypeA) }); n != 0 {
		t.Errorf("ParseAnswer allocates %.0f times, want 0", n)
	}
	if want := (Answer{RCode: RCodeSuccess, A: web, TTL: 5}); err != nil || ans != want {
		t.Fatalf("ParseAnswer = %+v, %v; want %+v", ans, err, want)
	}
	for _, tc := range []struct {
		why  string
		wire []byte
		id   uint16
		name string
		typ  Type
	}{
		{"another ID", wire, 8, "d1-s1.probe.example", TypeA},
		{"another name", wire, 7, "d2-s1.probe.example", TypeA},
		{"a longer name", wire, 7, "d1-s1.probe.example.net", TypeA},
		{"the root", wire, 7, ".", TypeA},
		{"another type", wire, 7, "d1-s1.probe.example", TypeTXT},
		{"a query", query, 7, "d1-s1.probe.example", TypeA},
	} {
		if _, err := ParseAnswer(tc.wire, tc.id, tc.name, tc.typ); !errors.Is(err, ErrNotMyAnswer) {
			t.Errorf("%s: err = %v, want ErrNotMyAnswer", tc.why, err)
		}
	}
	if _, err := ParseAnswer(wire[:len(wire)-1], 8, "x", TypeA); !errors.Is(err, ErrShortMessage) {
		t.Errorf("malformed and mismatched: err = %v, want ErrShortMessage first", err)
	}
}

// TestAppendAllocs: a query appended into a buffer with room makes nothing,
// and a reply is one allocation of its exact size.
func TestAppendAllocs(t *testing.T) {
	buf := make([]byte, 0, 512)
	var query []byte
	if n := testing.AllocsPerRun(100, func() { query, _ = AppendQuery(buf, 7, "d1-s1.probe.tft-example.net", TypeA) }); n != 0 {
		t.Errorf("AppendQuery allocates %.0f times, want 0", n)
	}
	soa := NewSOA("probe.tft-example.net", 60, 1, 2, 3, 4, 5)
	for _, tc := range []struct {
		ans  Answer
		soa  *SOA
		size int
	}{
		{Answer{RCode: RCodeSuccess, A: netip.AddrFrom4([4]byte{192, 0, 2, 1}), TTL: 5}, nil, len(query) + 16},
		{Answer{RCode: RCodeNXDomain}, &soa, len(query) + 51},
		{Answer{RCode: RCodeRefused}, nil, len(query)},
	} {
		var reply []byte
		if n := testing.AllocsPerRun(100, func() { reply, _ = AppendReply(nil, query, true, tc.ans, tc.soa) }); n != 1 {
			t.Errorf("%v: AppendReply allocates %.0f times, want 1", tc.ans.RCode, n)
		}
		if len(reply) != tc.size || cap(reply) != tc.size {
			t.Errorf("%v: reply of %d bytes in %d, want %d", tc.ans.RCode, len(reply), cap(reply), tc.size)
		}
	}
}
