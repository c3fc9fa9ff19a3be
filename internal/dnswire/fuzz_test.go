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
