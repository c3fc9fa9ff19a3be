package dnswire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"net/netip"
	"reflect"
	"strings"
	"testing"
)

// seedWire gives a fuzz target the datagrams FuzzUnmarshal has always
// started from: a query, an NXDOMAIN reply, a bare pointer, and 0xFF.
func seedWire(f *testing.F) {
	seed := func(m *Message) {
		if wire, err := m.Marshal(); err == nil {
			f.Add(wire)
		}
	}
	seed(NewQuery(1, "d1.probe.tft-example.net", TypeA))
	r := NewQuery(2, "d2.probe.tft-example.net", TypeA).Reply()
	r.RCode = RCodeNXDomain
	seed(r)
	f.Add([]byte{0xC0, 0x0C})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
}

// FuzzUnmarshal hammers the wire decoder: it must never panic, and
// anything it accepts must re-encode and re-decode to an equivalent
// message (decode/encode/decode stability).
func FuzzUnmarshal(f *testing.F) {
	seedWire(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		wire, err := m.Marshal()
		if err != nil {
			// Some decodable messages (e.g. with exotic names) may not be
			// re-encodable; that is fine as long as nothing panics.
			return
		}
		m2, err := Unmarshal(wire)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		if m2.ID != m.ID || m2.RCode != m.RCode ||
			len(m2.Questions) != len(m.Questions) || len(m2.Answers) != len(m.Answers) {
			t.Fatalf("unstable round trip: %+v vs %+v", m, m2)
		}
	})
}

// sentinels are the errors a decoder may call a datagram malformed with.
var sentinels = []error{ErrShortMessage, ErrBadName, ErrPointerLoop, ErrBadRecord,
	ErrNameTooLong, ErrLabelTooLong, ErrTooManyRecords}

// wireOf assembles a datagram by hand: a header with the given flags and
// counts, then the sections' bytes as given.
func wireOf(flags uint16, qd, an, ns uint16, body ...[]byte) []byte {
	wire := make([]byte, 12)
	binary.BigEndian.PutUint16(wire[0:], 0x5454)
	binary.BigEndian.PutUint16(wire[2:], flags)
	binary.BigEndian.PutUint16(wire[4:], qd)
	binary.BigEndian.PutUint16(wire[6:], an)
	binary.BigEndian.PutUint16(wire[8:], ns)
	return append(wire, bytes.Join(body, nil)...)
}

// wireName is labels in wire form, closed by the root label.
func wireName(labels ...string) []byte {
	var b []byte
	for _, l := range labels {
		b = append(append(b, byte(len(l))), l...)
	}
	return append(b, 0)
}

// FuzzFlatAgreesWithTree holds the scan layer to the decoder it replaced
// (oracle_test.go). For any input ParseQuery, ParseAnswer and the rebuilt
// Unmarshal call the datagram malformed exactly when the oracle does, with
// the same sentinel; when the oracle decodes it, Unmarshal builds the same
// tree and the flat readers report its header, its first question and the
// first A record of its answer section. ParseAnswer is handed the datagram's
// own ID and first question, so that "not my answer" is its verdict only on
// a datagram that is no response or echoes no question.
func FuzzFlatAgreesWithTree(f *testing.F) {
	seedWire(f)
	nx := NewQuery(3, "d2-s7.probe.tft-example.net", TypeA).Reply()
	nx.RCode = RCodeNXDomain
	nx.Authorities = []Record{{Name: "probe.tft-example.net", Type: TypeSOA, Class: ClassIN, TTL: 60,
		SOA: &SOAData{MName: "ns1.probe.tft-example.net", RName: "hostmaster.probe.tft-example.net", Serial: 1, MinTTL: 60}}}
	nxWire, _ := nx.Marshal()
	f.Add(nxWire)
	ok := NewQuery(4, "d1-s7.probe.tft-example.net", TypeA).Reply()
	ok.Answers = []Record{
		{Name: "d1-s7.probe.tft-example.net", Type: TypeCNAME, Class: ClassIN, TTL: 9, Target: "web.tft-example.net"},
		{Name: "web.tft-example.net", Type: TypeA, Class: ClassIN, TTL: 5, A: netip.AddrFrom4([4]byte{198, 51, 100, 10})},
		{Name: "web.tft-example.net", Type: TypeTXT, Class: ClassIN, TTL: 5, Text: []string{"a", ""}},
	}
	okWire, _ := ok.Marshal()
	f.Add(okWire)
	// Hand-made datagrams, each at an edge of what the scan checks.
	question := func(name []byte) []byte { return append(name, 0, 1, 0, 1) }
	a := []byte{0xC0, 12, 0, 1, 0, 1, 0, 0, 0, 5, 0, 4, 198, 51, 100, 10}
	l63 := strings.Repeat("x", 63)
	soa := append(append(wireName("ns1"), wireName("hostmaster")...), make([]byte, 16)...)
	for _, wire := range [][]byte{
		// A pointer to itself, a forward pointer, a forward pointer in an
		// owner name.
		wireOf(0, 1, 0, 0, question([]byte{0xC0, 12})),
		wireOf(0, 1, 0, 0, question([]byte{0xC0, 20})),
		wireOf(flagQR, 1, 1, 0, question(wireName("a")), []byte{0xC0, 30}, a[2:]),
		// A name of 255 bytes dotted, the longest accepted, and one of 256.
		wireOf(flagQR, 1, 1, 0, question(wireName(l63, l63, l63, l63[:62])), a),
		wireOf(flagQR, 1, 1, 0, question(wireName(l63, l63, l63, l63)), a),
		// RDATA cut short, an A RDATA of three octets, an SOA RDATA four
		// octets short.
		wireOf(flagQR, 1, 1, 0, question(wireName("d1", "example")), a[:len(a)-1]),
		wireOf(flagQR, 1, 1, 0, question(wireName("d1", "example")), a[:11], []byte{3, 1, 2, 3}),
		wireOf(flagQR|3, 1, 0, 1, question(wireName("d2", "example")),
			[]byte{0xC0, 12, 0, 6, 0, 1, 0, 0, 0, 60, 0, byte(len(soa))}, soa),
		// A response that echoes no question, and one that echoes two.
		wireOf(flagQR, 0, 1, 0, wireName("a"), a[2:]),
		wireOf(flagQR, 2, 1, 0, question(wireName("a")), question(wireName("b")), a),
	} {
		f.Add(wire)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := oracleUnmarshal(data)
		got, gotErr := Unmarshal(data)
		h, q, qErr := ParseQuery(data)
		var id uint16
		name, qtype := ".", TypeA
		if wantErr == nil {
			id = want.ID
			if len(want.Questions) > 0 {
				name, qtype = want.Questions[0].Name, want.Questions[0].Type
			}
		}
		ans, aErr := ParseAnswer(data, id, name, qtype)

		if wantErr != nil {
			for _, s := range sentinels {
				if !errors.Is(wantErr, s) {
					continue
				}
				if !errors.Is(gotErr, s) || !errors.Is(qErr, s) || !errors.Is(aErr, s) {
					t.Fatalf("the oracle says %v; Unmarshal %v, ParseQuery %v, ParseAnswer %v", wantErr, gotErr, qErr, aErr)
				}
				return
			}
			t.Fatalf("the oracle's error %v is no sentinel", wantErr)
		}
		if gotErr != nil || qErr != nil {
			t.Fatalf("the oracle decodes it; Unmarshal %v, ParseQuery %v", gotErr, qErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Unmarshal built\n%+v\nthe oracle\n%+v", got, want)
		}

		wantHead := Header{
			ID: want.ID, Response: want.Response, Opcode: want.Opcode, Authoritative: want.Authoritative,
			Truncated: want.Truncated, RecursionDesired: want.RecursionDesired,
			RecursionAvailable: want.RecursionAvailable, RCode: want.RCode,
			Questions: len(want.Questions), Answers: len(want.Answers),
			Authorities: len(want.Authorities), Additionals: len(want.Additionals),
		}
		var wantQ Question
		if len(want.Questions) > 0 {
			wantQ = want.Questions[0]
		}
		if h != wantHead || q != wantQ {
			t.Fatalf("ParseQuery read %+v %+v, the oracle %+v %+v", h, q, wantHead, wantQ)
		}

		if !want.Response || len(want.Questions) == 0 {
			if !errors.Is(aErr, ErrNotMyAnswer) {
				t.Fatalf("no response to any question, yet ParseAnswer returned %+v, %v", ans, aErr)
			}
			return
		}
		wantAns := Answer{RCode: want.RCode}
		for _, r := range want.Answers {
			if r.Type == TypeA {
				wantAns.A, wantAns.TTL = r.A, r.TTL
				break
			}
		}
		if aErr != nil || ans != wantAns {
			t.Fatalf("ParseAnswer read %+v, %v; the oracle %+v", ans, aErr, wantAns)
		}
	})
}

// FuzzNameRoundTrip marshals up to twenty names into one message — a
// question, then CNAME records whose owners and targets are drawn from few
// enough labels that suffixes recur — and requires that every name decodes
// to what was encoded and that every compression pointer points backwards,
// at the start of a label already written.
func FuzzNameRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(1))
	f.Add(uint64(20160413), uint8(20))
	f.Add(uint64(24), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, count uint8) {
		rng := rand.New(rand.NewPCG(seed, 24))
		labels := []string{"a", "b", "probe", "tft-example", "net", "x1", strings.Repeat("l", 63), "d1-s" + string(rune('0'+seed%10))}
		name := func() string {
			for {
				parts := make([]string, 1+rng.IntN(5))
				for i := range parts {
					parts[i] = labels[rng.IntN(len(labels))]
				}
				if n := strings.Join(parts, ".") + "."; len(n) <= 254 { // what Marshal encodes
					return n
				}
			}
		}
		names := make([]string, 1+int(count)%20)
		for i := range names {
			names[i] = name()
		}
		m := NewQuery(uint16(seed), names[0], TypeA).Reply()
		for i := 1; i+1 < len(names); i += 2 {
			m.Answers = append(m.Answers, Record{Name: names[i], Type: TypeCNAME, Class: ClassIN, TTL: 1, Target: names[i+1]})
		}
		if len(names)%2 == 0 {
			m.Authorities = []Record{{Name: names[len(names)-1], Type: TypeNS, Class: ClassIN, TTL: 1, Target: names[0]}}
		}
		wire, err := m.Marshal()
		if err != nil {
			t.Fatalf("marshal %q: %v", names, err)
		}
		got, err := Unmarshal(wire)
		if err != nil {
			t.Fatalf("decode of %x: %v", wire, err)
		}
		decoded := []string{got.Questions[0].Name}
		for _, r := range got.Answers {
			decoded = append(decoded, r.Name, r.Target)
		}
		for _, r := range got.Authorities {
			decoded = append(decoded, r.Name)
			if r.Target != names[0] {
				t.Fatalf("NS target %q, encoded %q", r.Target, names[0])
			}
		}
		if !reflect.DeepEqual(decoded, names) {
			t.Fatalf("decoded %q, encoded %q", decoded, names)
		}

		// Walk the datagram as laid out and check each pointer met.
		labelAt := map[int]bool{}
		walk := func(off int) int {
			for {
				switch b := wire[off]; {
				case b == 0:
					return off + 1
				case b&0xC0 == 0xC0:
					target := int(binary.BigEndian.Uint16(wire[off:]) & 0x3FFF)
					if target >= off || !labelAt[target] {
						t.Fatalf("pointer at %d to %d, which is no earlier label (%x)", off, target, wire)
					}
					return off + 2
				default:
					labelAt[off] = true
					off += 1 + int(b)
				}
			}
		}
		off := walk(12) + 4
		for range len(got.Answers) + len(got.Authorities) {
			off = walk(off)
			rdlen := int(binary.BigEndian.Uint16(wire[off+8:]))
			if end := walk(off + 10); end != off+10+rdlen {
				t.Fatalf("RDATA name at %d ends at %d, RDLENGTH says %d", off+10, end, off+10+rdlen)
			}
			off += 10 + rdlen
		}
		if off != len(wire) {
			t.Fatalf("walk ended at %d of %d bytes", off, len(wire))
		}
	})
}

// FuzzAppendAgreesWithTree holds the append encoders to the tree they
// replaced on every production path. AppendQuery writes, byte for byte, what
// NewQuery(...).Marshal() does, and fails where it fails. For every query
// ParseQuery accepts with one question, AppendReply is built in each of the
// three shapes the responders send — an A answer, NXDOMAIN with the SOA of a
// zone made of the question's last labels, REFUSED — and:
//
//   - where the question is plain (lower-case ASCII labels with no dot or
//     white space in them, not the root), the SOA's zone is not the root
//     either and the tree encodes its reply, the two replies are the same
//     bytes; or, where the tree compresses
//     MNAME or RNAME whole (a question under ns1.<zone> or
//     hostmaster.<zone>), they decode to the same tree;
//   - otherwise the reply is still the answer to the question as asked:
//     ParseAnswer reads from it the code and address it was given, and
//     reads the same from the tree's reply wherever that is an answer to
//     the question too. (The tree re-spells a question with a byte past
//     0x7F or white space, so that its reply is nobody's answer.)
//
// A question whose name holds a compression pointer is ErrQuestionPointer.
func FuzzAppendAgreesWithTree(f *testing.F) {
	// Each name's zone is its last three labels: probe.tft-example.net for
	// the names the crawl asks about.
	for _, name := range []string{"d1-s7.probe.tft-example.net", "D2-S7.Probe.TFT-Example.Net.", ".",
		"ns1.probe.tft-example.net", "x.hostmaster.probe.tft-example.net", "tft-example.net",
		" spaced .name", "caf\xc3\xa9.example"} {
		for shape := range uint8(3) {
			q, _ := AppendQuery(nil, 7, "x", TypeA)
			q = append(q[:12], wireName(strings.Split(strings.TrimSuffix(name, "."), ".")...)...)
			f.Add(append(q, 0, 1, 0, 1), name, uint16(7), uint16(TypeA), shape, uint8(3), uint32(5))
		}
	}
	f.Add(wireOf(flagRD, 1, 0, 0, []byte{2, 'd', '1', 0xC0, 4, 0, 1, 0, 1}), "d1", uint16(9), uint16(TypeTXT), uint8(1), uint8(1), uint32(0))
	f.Add(wireOf(flagRD|3<<11, 1, 0, 0, wireName("a.b", "c"), []byte{0, 1, 0, 1}), strings.Repeat("l", 64), uint16(0), uint16(28), uint8(1), uint8(2), uint32(1))

	f.Fuzz(func(t *testing.T, data []byte, name string, id, qtype uint16, shape, k uint8, ttl uint32) {
		want, wantErr := NewQuery(id, name, Type(qtype)).Marshal()
		got, err := AppendQuery(nil, id, name, Type(qtype))
		if !bytes.Equal(got, want) || (err == nil) != (wantErr == nil) {
			t.Fatalf("AppendQuery(%q) = %x, %v; the tree %x, %v", name, got, err, want, wantErr)
		}

		h, q, err := ParseQuery(data)
		if err != nil || h.Questions != 1 {
			return
		}
		end, labels, plain := 12, []string(nil), true
		for data[end] != 0 {
			if data[end]&0xC0 != 0 {
				if _, err := AppendReply(nil, data, true, Answer{RCode: RCodeRefused}, nil); !errors.Is(err, ErrQuestionPointer) {
					t.Fatalf("a question with a pointer: AppendReply err = %v", err)
				}
				return
			}
			l := string(data[end+1 : end+1+int(data[end])])
			labels = append(labels, l)
			plain = plain && lowerNoSpace(l) && !strings.Contains(l, ".")
			end += 1 + int(data[end])
		}
		plain = plain && len(labels) > 0

		tree, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("ParseQuery accepts what Unmarshal does not: %v", err)
		}
		resp := tree.Reply()
		resp.Authoritative = shape%2 == 0
		var ans Answer
		var soa *SOA
		zone := "."
		switch shape % 3 {
		case 0:
			ans = Answer{RCode: RCodeSuccess, A: netip.AddrFrom4([4]byte{198, 51, byte(id >> 8), byte(id)}), TTL: ttl}
			resp.Answers = append(resp.Answers, Record{Name: q.Name, Type: TypeA, Class: ClassIN, TTL: ttl, A: ans.A})
		case 1:
			ans = Answer{RCode: RCodeNXDomain}
			if n := int(k) % (len(labels) + 1); n > 0 {
				zone = CanonicalName(strings.Join(labels[len(labels)-n:], "."))
			}
			s := NewSOA(zone, ttl, 1, 2, 3, 4, 5)
			soa = &s
			resp.Authorities = []Record{{Name: zone, Type: TypeSOA, Class: ClassIN, TTL: ttl, SOA: &SOAData{
				MName: "ns1." + zone, RName: "hostmaster." + zone, Serial: 1, Refresh: 2, Retry: 3, Expire: 4, MinTTL: 5}}}
		default:
			ans = Answer{RCode: RCodeRefused}
		}
		resp.RCode = ans.RCode
		mine, err := AppendReply(nil, data, resp.Authoritative, ans, soa)
		if err != nil {
			// The zone is spelt from the question's labels through
			// CanonicalName, which changes bytes past 0x7F.
			if plain || !errors.Is(err, errNotInZone) {
				t.Fatalf("AppendReply(%x): %v", data, err)
			}
			return
		}
		if len(mine) != cap(mine) {
			t.Errorf("reply of %d bytes in a buffer of %d", len(mine), cap(mine))
		}
		theirs, treeErr := resp.Marshal()

		if plain && (soa == nil || zone != ".") && treeErr == nil {
			if bytes.Equal(mine, theirs) {
				return
			}
			qname := CanonicalName(q.Name)
			if soa == nil || !(strings.HasSuffix("."+qname, ".ns1."+zone) || strings.HasSuffix("."+qname, ".hostmaster."+zone)) {
				t.Fatalf("query %x: AppendReply\n%x\nthe tree\n%x", data, mine, theirs)
			}
			m1, err1 := Unmarshal(mine)
			m2, err2 := Unmarshal(theirs)
			if err1 != nil || err2 != nil || !reflect.DeepEqual(m1, m2) {
				t.Fatalf("query %x: AppendReply decodes to\n%+v (%v)\nthe tree to\n%+v (%v)", data, m1, err1, m2, err2)
			}
			return
		}
		read, err := ParseAnswer(mine, h.ID, q.Name, q.Type)
		if err != nil || read != ans {
			t.Fatalf("query %x: AppendReply's %x reads %+v, %v; it was given %+v", data, mine, read, err, ans)
		}
		if treeErr != nil {
			return
		}
		if read2, err := ParseAnswer(theirs, h.ID, q.Name, q.Type); err == nil && read2 != read {
			t.Fatalf("query %x: the tree's reply reads %+v, AppendReply's %+v", data, read2, read)
		}
	})
}
