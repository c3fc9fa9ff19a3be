// Package dnswire implements the subset of the DNS wire format (RFC 1035)
// that the paper's methodology exercises: queries and responses carrying A,
// NS, CNAME, TXT, and SOA records, response codes including NXDOMAIN, and
// name compression on both encode and decode.
//
// The NXDOMAIN-hijacking experiment (§4) hinges on three wire-level
// behaviours this package provides faithfully: source-conditional answers
// (the server inspects who asked before deciding between an A record and
// RCODE NXDOMAIN), NXDOMAIN itself, and answer substitution by resolvers and
// on-path interceptors, which rewrite the Answer — response code and first
// address — a client reads out of a response.
//
// Decoding is split in two. The scan layer decides whether a datagram is
// well-formed and builds nothing; Unmarshal (the whole tree), ParseQuery
// (header and question) and ParseAnswer (an Answer, matched to its query)
// read what it has passed.
//
// Encoding is split in two the same way. Message.Marshal writes any tree,
// compressing names. AppendQuery and AppendReply write the two datagrams an
// exchange is made of — a query, and the reply to one ParseQuery accepted —
// straight into a caller's buffer, with no tree.
package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"strings"
)

// Type is a DNS RR type.
type Type uint16

// Record types used by the experiments.
const (
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypeTXT   Type = 16
)

// String returns the conventional mnemonic.
func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypeTXT:
		return "TXT"
	}
	return fmt.Sprintf("TYPE%d", uint16(t))
}

// Class is a DNS class; only IN is used.
type Class uint16

// ClassIN is the Internet class.
const ClassIN Class = 1

// RCode is a DNS response code.
type RCode uint8

// Response codes.
const (
	RCodeSuccess  RCode = 0 // NOERROR
	RCodeFormat   RCode = 1 // FORMERR
	RCodeServFail RCode = 2 // SERVFAIL
	RCodeNXDomain RCode = 3 // NXDOMAIN — the code the paper's hijackers suppress
	RCodeRefused  RCode = 5 // REFUSED
)

// String returns the conventional mnemonic.
func (rc RCode) String() string {
	switch rc {
	case RCodeSuccess:
		return "NOERROR"
	case RCodeFormat:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeRefused:
		return "REFUSED"
	}
	return fmt.Sprintf("RCODE%d", uint8(rc))
}

// Question is the query section entry.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// Record is one resource record. Exactly one of the payload fields is
// meaningful, selected by Type.
type Record struct {
	Name  string
	Type  Type
	Class Class
	TTL   uint32
	// A holds the address for TypeA.
	A netip.Addr
	// Target holds the name for TypeNS and TypeCNAME.
	Target string
	// Text holds the strings for TypeTXT.
	Text []string
	// SOA holds the start-of-authority payload for TypeSOA.
	SOA *SOAData
}

// SOAData is the RDATA of an SOA record.
type SOAData struct {
	MName, RName                           string
	Serial, Refresh, Retry, Expire, MinTTL uint32
}

// Message is a DNS message as a tree. No production path builds one:
// queries and replies are written by AppendQuery and AppendReply and read by
// ParseQuery and ParseAnswer. The tree, with NewQuery, Reply, Marshal and
// Unmarshal, stays for the benchmark's dnswire layer drive and as the oracle
// the tests hold those four to.
type Message struct {
	ID                 uint16
	Response           bool
	Opcode             uint8
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              RCode
	Questions          []Question
	Answers            []Record
	Authorities        []Record
	Additionals        []Record

	// Backing for the message every exchange in the repository is: one
	// question, one record. Reply and Unmarshal point Questions at q1, and
	// the section that gets the first record at r1, so such a message is
	// one allocation; more questions or records take slices of their own
	// as before.
	q1 [1]Question
	r1 [1]Record
}

// NewQuery builds a standard recursive query for (name, type). It does not
// use the inline backing: a message that points into itself lives on the
// heap, and a query that is built, marshalled and dropped — the resolver's
// — otherwise never leaves its caller's stack.
func NewQuery(id uint16, name string, t Type) *Message {
	return &Message{
		ID:               id,
		RecursionDesired: true,
		Questions:        []Question{{Name: name, Type: t, Class: ClassIN}},
	}
}

// Reply builds a response skeleton echoing the query's ID and question. The
// first record appended to its Answers costs no allocation.
func (m *Message) Reply() *Message {
	r := &Message{
		ID:                 m.ID,
		Response:           true,
		Opcode:             m.Opcode,
		RecursionDesired:   m.RecursionDesired,
		RecursionAvailable: true,
	}
	r.Questions = append(r.q1[:0], m.Questions...)
	r.Answers = r.r1[:0]
	return r
}

// Errors returned by the codec.
var (
	ErrShortMessage   = errors.New("dnswire: truncated message")
	ErrBadName        = errors.New("dnswire: malformed domain name")
	ErrPointerLoop    = errors.New("dnswire: compression pointer loop")
	ErrBadRecord      = errors.New("dnswire: malformed resource record")
	ErrNameTooLong    = errors.New("dnswire: domain name exceeds 255 octets")
	ErrLabelTooLong   = errors.New("dnswire: label exceeds 63 octets")
	ErrTooManyRecords = errors.New("dnswire: section count exceeds message")
)

const (
	flagQR = 1 << 15
	flagAA = 1 << 10
	flagTC = 1 << 9
	flagRD = 1 << 8
	flagRA = 1 << 7
)

// Marshal encodes the message with name compression.
func (m *Message) Marshal() ([]byte, error) {
	buf := make([]byte, 12, m.sizeHint())
	binary.BigEndian.PutUint16(buf[0:2], m.ID)
	var flags uint16
	if m.Response {
		flags |= flagQR
	}
	flags |= uint16(m.Opcode&0xF) << 11
	if m.Authoritative {
		flags |= flagAA
	}
	if m.Truncated {
		flags |= flagTC
	}
	if m.RecursionDesired {
		flags |= flagRD
	}
	if m.RecursionAvailable {
		flags |= flagRA
	}
	flags |= uint16(m.RCode & 0xF)
	binary.BigEndian.PutUint16(buf[2:4], flags)
	binary.BigEndian.PutUint16(buf[4:6], uint16(len(m.Questions)))
	binary.BigEndian.PutUint16(buf[6:8], uint16(len(m.Answers)))
	binary.BigEndian.PutUint16(buf[8:10], uint16(len(m.Authorities)))
	binary.BigEndian.PutUint16(buf[10:12], uint16(len(m.Additionals)))

	var comp compTable
	var err error
	for _, q := range m.Questions {
		buf, err = appendName(buf, q.Name, &comp)
		if err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Type))
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Class))
	}
	for _, sec := range [][]Record{m.Answers, m.Authorities, m.Additionals} {
		for i := range sec {
			buf, err = appendRecord(buf, &sec[i], &comp)
			if err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}

// sizeHint bounds the encoded size from above — compression only ever
// shortens a name — so that Marshal's buffer is made once, at about the size
// of what is sent and not at the 512 bytes a datagram may be.
func (m *Message) sizeHint() int {
	// A name of n dotted bytes encodes in at most n+2.
	n := 12
	for i := range m.Questions {
		n += len(m.Questions[i].Name) + 2 + 4
	}
	for _, sec := range [][]Record{m.Answers, m.Authorities, m.Additionals} {
		for i := range sec {
			r := &sec[i]
			n += len(r.Name) + 2 + 10
			switch r.Type {
			case TypeA:
				n += 4
			case TypeNS, TypeCNAME:
				n += len(r.Target) + 2
			case TypeTXT:
				for _, s := range r.Text {
					n += len(s) + 1
				}
			case TypeSOA:
				if r.SOA != nil {
					n += len(r.SOA.MName) + len(r.SOA.RName) + 4 + 20
				}
			}
		}
	}
	return n
}

// compTable remembers where each name suffix was written, for compression
// pointers: the first compInline of them in place, which covers any message
// the experiments exchange, the rest in a map made only then.
type compTable struct {
	n      int
	inline [compInline]compEntry
	more   map[string]int
}

const compInline = 16

type compEntry struct {
	suffix string
	off    int
}

// lookup returns the offset suffix was written at.
//
//tftlint:hotpath
func (c *compTable) lookup(suffix string) (int, bool) {
	for i := 0; i < c.n; i++ {
		if c.inline[i].suffix == suffix {
			return c.inline[i].off, true
		}
	}
	off, ok := c.more[suffix]
	return off, ok
}

// add records that suffix, which lookup did not find, starts at off.
//
//tftlint:hotpath
func (c *compTable) add(suffix string, off int) {
	if c.n < compInline {
		c.inline[c.n] = compEntry{suffix, off}
		c.n++
		return
	}
	if c.more == nil {
		c.more = make(map[string]int)
	}
	c.more[suffix] = off
}

func appendRecord(buf []byte, r *Record, comp *compTable) ([]byte, error) {
	var err error
	buf, err = appendName(buf, r.Name, comp)
	if err != nil {
		return nil, err
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(r.Type))
	buf = binary.BigEndian.AppendUint16(buf, uint16(r.Class))
	buf = binary.BigEndian.AppendUint32(buf, r.TTL)
	lenAt := len(buf)
	buf = append(buf, 0, 0) // RDLENGTH placeholder
	switch r.Type {
	case TypeA:
		if !r.A.Is4() {
			return nil, fmt.Errorf("%w: A record with non-IPv4 address %v", ErrBadRecord, r.A)
		}
		a4 := r.A.As4()
		buf = append(buf, a4[:]...)
	case TypeNS, TypeCNAME:
		buf, err = appendName(buf, r.Target, comp)
		if err != nil {
			return nil, err
		}
	case TypeTXT:
		for _, s := range r.Text {
			if len(s) > 255 {
				return nil, fmt.Errorf("%w: TXT string too long", ErrBadRecord)
			}
			buf = append(buf, byte(len(s)))
			buf = append(buf, s...)
		}
	case TypeSOA:
		if r.SOA == nil {
			return nil, fmt.Errorf("%w: SOA record without payload", ErrBadRecord)
		}
		buf, err = appendName(buf, r.SOA.MName, comp)
		if err != nil {
			return nil, err
		}
		buf, err = appendName(buf, r.SOA.RName, comp)
		if err != nil {
			return nil, err
		}
		for _, v := range []uint32{r.SOA.Serial, r.SOA.Refresh, r.SOA.Retry, r.SOA.Expire, r.SOA.MinTTL} {
			buf = binary.BigEndian.AppendUint32(buf, v)
		}
	default:
		return nil, fmt.Errorf("%w: unsupported type %v", ErrBadRecord, r.Type)
	}
	binary.BigEndian.PutUint16(buf[lenAt:lenAt+2], uint16(len(buf)-lenAt-2))
	return buf, nil
}

// appendName encodes a domain name, emitting a compression pointer when a
// suffix has been written before; with comp nil it writes every label.
//
//tftlint:hotpath
func appendName(buf []byte, name string, comp *compTable) ([]byte, error) {
	// A name that is lower-case already needs no canonical copy, dotted at
	// the end or not: the dot is not encoded.
	if !lowerNoSpace(name) {
		name = CanonicalName(name)
	}
	trimmed := strings.TrimSuffix(name, ".")
	if trimmed == "" {
		return append(buf, 0), nil
	}
	if len(trimmed)+1 > 254 {
		return nil, ErrNameTooLong
	}
	// Walk the labels by index: every suffix is a substring of name, so
	// the compression-table probes and inserts allocate nothing.
	for i := 0; i < len(trimmed); {
		suffix := trimmed[i:]
		if comp != nil {
			if off, ok := comp.lookup(suffix); ok && off < 0x3FFF {
				return binary.BigEndian.AppendUint16(buf, uint16(0xC000|off)), nil
			}
			if len(buf) < 0x3FFF {
				comp.add(suffix, len(buf))
			}
		}
		l := suffix
		if j := strings.IndexByte(suffix, '.'); j >= 0 {
			l = suffix[:j]
		}
		if l == "" {
			return nil, ErrBadName
		}
		if len(l) > 63 {
			return nil, ErrLabelTooLong
		}
		buf = append(buf, byte(len(l)))
		buf = append(buf, l...)
		i += len(l) + 1
	}
	return append(buf, 0), nil
}

// AppendQuery appends to dst a standard recursive query for (name, qtype):
// the header, and one question whose name is written whole and lower-cased
// — the bytes NewQuery(id, name, qtype).Marshal() returns.
//
//tftlint:hotpath
func AppendQuery(dst []byte, id uint16, name string, qtype Type) ([]byte, error) {
	dst = append(dst, byte(id>>8), byte(id), flagRD>>8, 0, 0, 1, 0, 0, 0, 0, 0, 0)
	dst, err := appendName(dst, name, nil)
	if err != nil {
		return nil, err
	}
	return append(dst, byte(qtype>>8), byte(qtype), 0, byte(ClassIN)), nil
}

// ErrQuestionPointer is AppendReply's verdict on a query whose question name
// holds a compression pointer. The question is copied into the reply as
// sent, where such a pointer would point into the reply's header instead.
var ErrQuestionPointer = errors.New("dnswire: compression pointer in the question")

// errNotInZone is AppendReply's verdict when the SOA's zone is no suffix of
// the question's labels.
var errNotInZone = errors.New("dnswire: question is not in the SOA's zone")

// SOA is the record an authority's NXDOMAIN carries in its authority
// section: owner the zone, MNAME ns1.<zone>, RNAME hostmaster.<zone>.
// AppendReply writes the owner and the ends of both names as pointers to the
// zone's labels inside the question, so all the record holds of its own is
// framed once, by NewSOA.
type SOA struct {
	zone string       // canonical
	rr   [soaLen]byte // the record after its owner, both pointers zero
}

// The layout of SOA.rr: TYPE, CLASS, TTL, RDLENGTH, then MNAME (the label
// "ns1" and a pointer), RNAME (the label "hostmaster" and a pointer) and the
// five 32-bit fields.
const (
	soaMPtr = 10 + 4
	soaRPtr = soaMPtr + 2 + 11
	soaLen  = soaRPtr + 2 + 20
)

// NewSOA frames the SOA record of zone, with the given TTL, serial and
// timers.
func NewSOA(zone string, ttl, serial, refresh, retry, expire, minTTL uint32) SOA {
	s := SOA{zone: CanonicalName(zone)}
	rr := binary.BigEndian.AppendUint16(s.rr[:0], uint16(TypeSOA))
	rr = binary.BigEndian.AppendUint16(rr, uint16(ClassIN))
	rr = binary.BigEndian.AppendUint32(rr, ttl)
	rr = binary.BigEndian.AppendUint16(rr, soaLen-10)
	rr = append(rr, 3, 'n', 's', '1', 0, 0, 10)
	rr = append(rr, "hostmaster"...)
	rr = append(rr, 0, 0)
	for _, v := range [...]uint32{serial, refresh, retry, expire, minTTL} {
		rr = binary.BigEndian.AppendUint32(rr, v)
	}
	return s
}

// AppendReply appends to dst the reply to query, a datagram ParseQuery
// accepted as a query with one question, and makes at most one allocation,
// of the reply's exact size. The header echoes the query's ID, opcode and
// recursion-desired bit, sets QR and RA, AA as authoritative says and
// ans.RCode. The question is copied as sent, case included. Then comes one
// A record, when ans.A is valid, owned by the question's name through the
// pointer 0xC00C and carrying ans.TTL; otherwise soa's record in the
// authority section when soa is non-nil, whose zone must be a suffix of the
// question's labels; otherwise nothing.
//
//tftlint:hotpath
func AppendReply(dst, query []byte, authoritative bool, ans Answer, soa *SOA) ([]byte, error) {
	nameEnd := 12
	for {
		if nameEnd >= len(query) {
			return nil, ErrShortMessage
		}
		l := int(query[nameEnd])
		if l == 0 {
			nameEnd++
			break
		}
		if l&0xC0 != 0 {
			return nil, ErrQuestionPointer
		}
		nameEnd += 1 + l
	}
	qEnd := nameEnd + 4
	if qEnd > len(query) {
		return nil, ErrShortMessage
	}
	size, an, ns, zone := qEnd, byte(0), byte(0), 0
	switch {
	case ans.A.IsValid():
		if !ans.A.Is4() {
			return nil, errANotIPv4
		}
		size, an = size+16, 1
	case soa != nil:
		if zone = zoneAt(query, nameEnd, soa.zone); zone < 0 {
			return nil, errNotInZone
		}
		if nameEnd-zone-1 > 255-11 { // RNAME would pass 255 octets
			return nil, ErrNameTooLong
		}
		size, ns = size+2+soaLen, 1
	}

	if cap(dst)-len(dst) < size {
		dst = append(make([]byte, 0, len(dst)+size), dst...)
	}
	flags := flagQR>>8 | query[2]&0x79 // opcode and RD echoed
	if authoritative {
		flags |= flagAA >> 8
	}
	dst = append(dst, query[0], query[1], flags, flagRA|byte(ans.RCode&0xF), 0, 1, 0, an, 0, ns, 0, 0)
	dst = append(dst, query[12:qEnd]...)
	switch {
	case an == 1:
		a4 := ans.A.As4()
		dst = append(dst, 0xC0, 12, 0, byte(TypeA), 0, byte(ClassIN))
		dst = binary.BigEndian.AppendUint32(dst, ans.TTL)
		dst = append(dst, 0, 4, a4[0], a4[1], a4[2], a4[3])
	case ns == 1:
		ptr := uint16(0xC000 | zone)
		dst = binary.BigEndian.AppendUint16(dst, ptr)
		rr := len(dst)
		dst = append(dst, soa.rr[:]...)
		binary.BigEndian.PutUint16(dst[rr+soaMPtr:], ptr)
		binary.BigEndian.PutUint16(dst[rr+soaRPtr:], ptr)
	}
	return dst, nil
}

// zoneAt returns the offset of the label at which the question name that
// ends at nameEnd (past its root label) spells zone, a canonical name,
// ASCII case aside; -1 when no label does.
//
//tftlint:hotpath
func zoneAt(query []byte, nameEnd int, zone string) int {
	at := nameEnd - 1 // the root
	if zone != "." {
		at -= len(zone)
	}
	off := 12
	for off < at {
		off += 1 + int(query[off])
	}
	if off != at {
		return -1
	}
	for z := 0; ; {
		l := int(query[off])
		if l == 0 { // every byte from at on has matched
			return at
		}
		if z+l >= len(zone) || zone[z+l] != '.' {
			return -1
		}
		for i := 0; i < l; i++ {
			if lowerASCII(query[off+1+i]) != zone[z+i] {
				return -1
			}
		}
		z += l + 1
		off += l + 1
	}
}

// Header is the fixed twelve bytes a message opens with, decoded: the flags
// a Message carries and the four section counts as the datagram states them.
type Header struct {
	ID                 uint16
	Response           bool
	Opcode             uint8
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              RCode

	Questions, Answers, Authorities, Additionals int
}

// Answer is what a resolver's client learns from a response: the response
// code and the first A record of the answer section (A is the zero Addr when
// there is none). It is everything the methodology reads of a DNS exchange.
type Answer struct {
	RCode RCode
	A     netip.Addr
	TTL   uint32
}

// ErrNotMyAnswer is ParseAnswer's verdict on a well-formed datagram that is
// not the response to the question asked.
var ErrNotMyAnswer = errors.New("dnswire: not the response to this query")

// The scan layer — scanHeader, scanName, scanQuestion(s), scanRecord — is the
// one place that decides whether a datagram is well-formed. It builds
// nothing: Unmarshal materialises the tree from a datagram it has passed,
// and ParseQuery and ParseAnswer read out the few values an exchange needs.

// scanHeader decodes the fixed header.
//
//tftlint:hotpath
func scanHeader(data []byte) (Header, error) {
	if len(data) < 12 {
		return Header{}, ErrShortMessage
	}
	flags := binary.BigEndian.Uint16(data[2:4])
	h := Header{
		ID:                 binary.BigEndian.Uint16(data[0:2]),
		Response:           flags&flagQR != 0,
		Opcode:             uint8(flags >> 11 & 0xF),
		Authoritative:      flags&flagAA != 0,
		Truncated:          flags&flagTC != 0,
		RecursionDesired:   flags&flagRD != 0,
		RecursionAvailable: flags&flagRA != 0,
		RCode:              RCode(flags & 0xF),
		Questions:          int(binary.BigEndian.Uint16(data[4:6])),
		Answers:            int(binary.BigEndian.Uint16(data[6:8])),
		Authorities:        int(binary.BigEndian.Uint16(data[8:10])),
		Additionals:        int(binary.BigEndian.Uint16(data[10:12])),
	}
	if h.Questions+h.Answers+h.Authorities+h.Additionals > len(data) {
		return Header{}, ErrTooManyRecords
	}
	return h, nil
}

// scanName checks the possibly-compressed name starting at off — bounds,
// pointer direction and count, label and name lengths — and returns the
// length n of its dotted form (0 for the root) and the offset just past the
// name's in-place bytes. With nb non-nil the dotted form is left in nb[:n]:
// 256 bytes cover every legal name, whose dotted form is at most 255.
//
//tftlint:hotpath
func scanName(data []byte, off int, nb *[256]byte) (n, end int, err error) {
	jumped := false
	end = off
	hops := 0
	for {
		if off >= len(data) {
			return 0, end, ErrShortMessage
		}
		b := data[off]
		switch {
		case b == 0:
			if !jumped {
				end = off + 1
			}
			if n > 255 {
				return 0, end, ErrNameTooLong
			}
			return n, end, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(data) {
				return 0, end, ErrShortMessage
			}
			ptr := int(binary.BigEndian.Uint16(data[off:]) & 0x3FFF)
			if !jumped {
				end = off + 2
				jumped = true
			}
			hops++
			if hops > 64 || ptr >= off {
				return 0, end, ErrPointerLoop
			}
			off = ptr
		case b&0xC0 != 0:
			return 0, end, ErrBadName
		default:
			l := int(b)
			if off+1+l > len(data) {
				return 0, end, ErrShortMessage
			}
			if n+l+1 > len(nb) {
				return 0, end, ErrNameTooLong
			}
			if nb != nil {
				copy(nb[n:], data[off+1:off+1+l])
				nb[n+l] = '.'
			}
			n += l + 1
			off += 1 + l
		}
	}
}

// dotted is the string form of the n bytes scanName left in nb.
func dotted(nb *[256]byte, n int) string {
	if n == 0 {
		return "."
	}
	return string(nb[:n])
}

// scanQuestion checks the question entry at off and returns its type, its
// class and the offset of what follows; the name goes to nb as scanName
// leaves it.
//
//tftlint:hotpath
func scanQuestion(data []byte, off int, nb *[256]byte) (n int, t Type, c Class, next int, err error) {
	n, off, err = scanName(data, off, nb)
	if err != nil {
		return 0, 0, 0, off, err
	}
	if off+4 > len(data) {
		return 0, 0, 0, off, ErrShortMessage
	}
	t = Type(binary.BigEndian.Uint16(data[off:]))
	c = Class(binary.BigEndian.Uint16(data[off+2:]))
	return n, t, c, off + 4, nil
}

// scanQuestions checks the count question entries a datagram opens with and
// returns the first one's type and class — its name goes to nb — and the
// offset of the first record.
//
//tftlint:hotpath
func scanQuestions(data []byte, count int, nb *[256]byte) (n int, t Type, c Class, off int, err error) {
	off = 12
	for i := 0; i < count; i++ {
		if i == 0 {
			n, t, c, off, err = scanQuestion(data, off, nb)
		} else {
			_, _, _, off, err = scanQuestion(data, off, nil)
		}
		if err != nil {
			return 0, 0, 0, off, err
		}
	}
	return n, t, c, off, nil
}

// rrHead is what scanRecord reports of a record it found well-formed: the
// fixed fields, and where its RDATA lies in the datagram.
type rrHead struct {
	Type  Type
	Class Class
	TTL   uint32
	rdata int // RDATA is data[rdata : rdata+rdlen]
	rdlen int
}

// scanRecord checks the resource record at off: its owner name, the fixed
// fields, that the RDATA lies inside the datagram and has the shape its type
// demands — names in it may point anywhere earlier in the message — and that
// the type is one this package carries. It returns the offset of what
// follows the record.
//
//tftlint:hotpath
func scanRecord(data []byte, off int) (rrHead, int, error) {
	_, off, err := scanName(data, off, nil)
	if err != nil {
		return rrHead{}, off, err
	}
	if off+10 > len(data) {
		return rrHead{}, off, ErrShortMessage
	}
	r := rrHead{
		Type:  Type(binary.BigEndian.Uint16(data[off:])),
		Class: Class(binary.BigEndian.Uint16(data[off+2:])),
		TTL:   binary.BigEndian.Uint32(data[off+4:]),
		rdata: off + 10,
		rdlen: int(binary.BigEndian.Uint16(data[off+8:])),
	}
	next := r.rdata + r.rdlen
	if next > len(data) {
		return rrHead{}, off, ErrShortMessage
	}
	switch r.Type {
	case TypeA:
		if r.rdlen != 4 {
			return rrHead{}, off, errARDLength
		}
	case TypeNS, TypeCNAME:
		if _, _, err = scanName(data, r.rdata, nil); err != nil {
			return rrHead{}, off, err
		}
	case TypeTXT:
		for p := r.rdata; p < next; {
			p += 1 + int(data[p])
			if p > next {
				return rrHead{}, off, errTXTOverrun
			}
		}
	case TypeSOA:
		p := r.rdata
		for range 2 { // MNAME, RNAME
			if _, p, err = scanName(data, p, nil); err != nil {
				return rrHead{}, off, err
			}
		}
		if p+20 > next {
			return rrHead{}, off, ErrShortMessage
		}
	default:
		return rrHead{}, off, errUnsupportedType
	}
	return r, next, nil
}

// What scanRecord finds wrong with an RDATA, preformatted: a hot path makes
// no fmt call. Each is ErrBadRecord under errors.Is.
var (
	errARDLength       = fmt.Errorf("%w: A RDATA is not 4 octets", ErrBadRecord)
	errTXTOverrun      = fmt.Errorf("%w: TXT string overruns RDATA", ErrBadRecord)
	errUnsupportedType = fmt.Errorf("%w: unsupported type", ErrBadRecord)
	errANotIPv4        = fmt.Errorf("%w: A record with non-IPv4 address", ErrBadRecord)
)

// Unmarshal decodes a wire-format message into the tree.
func Unmarshal(data []byte) (*Message, error) {
	h, err := scanHeader(data)
	if err != nil {
		return nil, err
	}
	m := &Message{
		ID: h.ID, Response: h.Response, Opcode: h.Opcode, Authoritative: h.Authoritative,
		Truncated: h.Truncated, RecursionDesired: h.RecursionDesired,
		RecursionAvailable: h.RecursionAvailable, RCode: h.RCode,
	}
	off := 12
	var nb [256]byte
	m.Questions = m.q1[:0]
	for i := 0; i < h.Questions; i++ {
		var q Question
		var n int
		n, q.Type, q.Class, off, err = scanQuestion(data, off, &nb)
		if err != nil {
			return nil, err
		}
		q.Name = dotted(&nb, n)
		m.Questions = append(m.Questions, q)
	}
	inline := m.r1[:0] // goes to the first section that has a record
	for i, sec := range [...]*[]Record{&m.Answers, &m.Authorities, &m.Additionals} {
		n := [...]int{h.Answers, h.Authorities, h.Additionals}[i]
		if n > 0 {
			*sec, inline = inline, nil
		}
		for ; n > 0; n-- {
			var r Record
			r, off, err = m.readRecord(data, off)
			if err != nil {
				return nil, err
			}
			*sec = append(*sec, r)
		}
	}
	return m, nil
}

// readRecord materialises the record at off, once scanRecord has passed it.
func (m *Message) readRecord(data []byte, off int) (Record, int, error) {
	h, next, err := scanRecord(data, off)
	if err != nil {
		return Record{}, off, err
	}
	r := Record{Type: h.Type, Class: h.Class, TTL: h.TTL}
	if len(m.Questions) > 0 && data[off] == 0xC0 && data[off+1] == 12 {
		// The owner name is a pointer to the first question's: every
		// answer the authority gives. Same name, same string.
		r.Name = m.Questions[0].Name
	} else {
		r.Name, _ = readName(data, off)
	}
	rdata := data[h.rdata:next]
	switch r.Type {
	case TypeA:
		r.A = netip.AddrFrom4([4]byte(rdata))
	case TypeNS, TypeCNAME:
		r.Target, _ = readName(data, h.rdata)
	case TypeTXT:
		for p := 0; p < len(rdata); {
			l := int(rdata[p])
			r.Text = append(r.Text, string(rdata[p+1:p+1+l]))
			p += 1 + l
		}
	case TypeSOA:
		soa := &SOAData{}
		p := h.rdata
		soa.MName, p = readName(data, p)
		soa.RName, p = readName(data, p)
		soa.Serial = binary.BigEndian.Uint32(data[p:])
		soa.Refresh = binary.BigEndian.Uint32(data[p+4:])
		soa.Retry = binary.BigEndian.Uint32(data[p+8:])
		soa.Expire = binary.BigEndian.Uint32(data[p+12:])
		soa.MinTTL = binary.BigEndian.Uint32(data[p+16:])
		r.SOA = soa
	}
	return r, next, nil
}

// readName returns, as a string, a name the scan layer has passed, and the
// offset just past its in-place bytes: the one allocation a name costs.
func readName(data []byte, off int) (string, int) {
	var nb [256]byte
	n, end, _ := scanName(data, off, &nb)
	return dotted(&nb, n), end
}

// ParseQuery reads a datagram as the query every exchange in the repository
// sends: the header and the first question, whose name is the one string the
// exchange makes. The whole datagram is held to what Unmarshal demands of
// it. It is for the caller to refuse a header that says response, or counts
// other than one question.
//
//tftlint:hotpath
func ParseQuery(data []byte) (Header, Question, error) {
	var nb [256]byte
	h, name, t, c, err := ParseQueryName(data, &nb)
	if err != nil {
		return Header{}, Question{}, err
	}
	if h.Questions == 0 {
		return h, Question{}, nil
	}
	return h, Question{Name: dotted(&nb, len(name)), Type: t, Class: c}, nil
}

// ParseQueryName is ParseQuery making no string: the first question's name
// is left in nb, and name is its dotted form there, nb[:n] — case as sent,
// a dot after every label, empty for the root (whose string form is ".").
// A datagram with no question returns an empty name and a zero type and
// class.
//
//tftlint:hotpath
func ParseQueryName(data []byte, nb *[256]byte) (h Header, name []byte, t Type, c Class, err error) {
	if h, err = scanHeader(data); err != nil {
		return Header{}, nil, 0, 0, err
	}
	n, t, c, off, err := scanQuestions(data, h.Questions, nb)
	if err != nil {
		return Header{}, nil, 0, 0, err
	}
	for i := h.Answers + h.Authorities + h.Additionals; i > 0; i-- {
		if _, off, err = scanRecord(data, off); err != nil {
			return Header{}, nil, 0, 0, err
		}
	}
	return h, nb[:n], t, c, nil
}

// ParseAnswer reads a datagram as the response to the query (id, name,
// qtype): its response code and the first A record of its answer section,
// at no allocation. The whole datagram is held to what Unmarshal demands of
// it, and one that passes must also be this query's answer — a response,
// with the query's ID, whose first question is the query's (names compared
// without regard to ASCII case or a trailing dot) — or the error is
// ErrNotMyAnswer: a late duplicate or a reply to another name is nobody's
// verdict on this one.
//
//tftlint:hotpath
func ParseAnswer(data []byte, id uint16, name string, qtype Type) (Answer, error) {
	h, err := scanHeader(data)
	if err != nil {
		return Answer{}, err
	}
	var nb [256]byte
	n, t, _, off, err := scanQuestions(data, h.Questions, &nb)
	if err != nil {
		return Answer{}, err
	}
	ans := Answer{RCode: h.RCode}
	for i := 0; i < h.Answers+h.Authorities+h.Additionals; i++ {
		var r rrHead
		if r, off, err = scanRecord(data, off); err != nil {
			return Answer{}, err
		}
		if i < h.Answers && r.Type == TypeA && !ans.A.IsValid() {
			ans.A = netip.AddrFrom4([4]byte(data[r.rdata:off]))
			ans.TTL = r.TTL
		}
	}
	if !h.Response || h.ID != id || h.Questions == 0 || t != qtype || !sameName(nb[:n], name) {
		return Answer{}, ErrNotMyAnswer
	}
	return ans, nil
}

// sameName reports whether wire — a name in the dotted form scanName leaves,
// empty for the root — is name, ASCII case and a trailing dot on name aside.
func sameName(wire []byte, name string) bool {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		return len(wire) == 0
	}
	if len(wire) != len(name)+1 {
		return false
	}
	for i := 0; i < len(name); i++ {
		if lowerASCII(wire[i]) != lowerASCII(name[i]) {
			return false
		}
	}
	return true
}

func lowerASCII(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// CanonicalName lowercases a domain name and ensures a trailing dot, the
// form used as map keys throughout the repository. A name already in that
// form — every name on the hot path — is returned as it is, at no cost.
func CanonicalName(name string) string {
	if name != "" && name[len(name)-1] == '.' && lowerNoSpace(name) {
		return name
	}
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		return "."
	}
	if !strings.HasSuffix(name, ".") {
		name += "."
	}
	return name
}

// lowerNoSpace reports whether name is all ASCII with no upper-case letter
// and no white space: what CanonicalName would leave alone, but for the dot
// at the end.
func lowerNoSpace(name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 0x80 || (c >= 'A' && c <= 'Z') ||
			c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f' {
			return false
		}
	}
	return true
}

// IsSubdomain reports whether child equals or falls under parent.
func IsSubdomain(child, parent string) bool {
	c, p := CanonicalName(child), CanonicalName(parent)
	if p == "." {
		return true
	}
	return c == p || strings.HasSuffix(c, "."+p)
}
