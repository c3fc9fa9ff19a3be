package dnswire

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// The decoder as it stood before the scan layer: one pass that validates and
// builds at once. It is kept, unchanged but for its names, as the oracle the
// scan layer and the flat readers are held to (FuzzFlatAgreesWithTree): they
// must call a datagram malformed exactly when this does, with the same
// sentinel, and read the same values out of one it accepts.

// oracleUnmarshal decodes a wire-format message.
func oracleUnmarshal(data []byte) (*Message, error) {
	if len(data) < 12 {
		return nil, ErrShortMessage
	}
	m := &Message{ID: binary.BigEndian.Uint16(data[0:2])}
	flags := binary.BigEndian.Uint16(data[2:4])
	m.Response = flags&flagQR != 0
	m.Opcode = uint8(flags >> 11 & 0xF)
	m.Authoritative = flags&flagAA != 0
	m.Truncated = flags&flagTC != 0
	m.RecursionDesired = flags&flagRD != 0
	m.RecursionAvailable = flags&flagRA != 0
	m.RCode = RCode(flags & 0xF)
	qd := int(binary.BigEndian.Uint16(data[4:6]))
	an := int(binary.BigEndian.Uint16(data[6:8]))
	ns := int(binary.BigEndian.Uint16(data[8:10]))
	ar := int(binary.BigEndian.Uint16(data[10:12]))
	if qd+an+ns+ar > len(data) {
		return nil, ErrTooManyRecords
	}

	off := 12
	var err error
	m.Questions = m.q1[:0]
	for i := 0; i < qd; i++ {
		var q Question
		q.Name, off, err = oracleReadName(data, off)
		if err != nil {
			return nil, err
		}
		if off+4 > len(data) {
			return nil, ErrShortMessage
		}
		q.Type = Type(binary.BigEndian.Uint16(data[off:]))
		q.Class = Class(binary.BigEndian.Uint16(data[off+2:]))
		off += 4
		m.Questions = append(m.Questions, q)
	}
	inline := m.r1[:0] // goes to the first section that has a record
	for i, sec := range [...]*[]Record{&m.Answers, &m.Authorities, &m.Additionals} {
		n := [...]int{an, ns, ar}[i]
		if n > 0 {
			*sec, inline = inline, nil
		}
		for ; n > 0; n-- {
			var r Record
			r, off, err = m.oracleReadRecord(data, off)
			if err != nil {
				return nil, err
			}
			*sec = append(*sec, r)
		}
	}
	return m, nil
}

// oracleReadRecord decodes the record at off.
func (m *Message) oracleReadRecord(data []byte, off int) (Record, int, error) {
	var r Record
	var err error
	if len(m.Questions) > 0 && off+1 < len(data) && data[off] == 0xC0 && data[off+1] == 12 {
		// The owner name is a pointer to the first question's: every
		// answer the authority gives. Same name, same string.
		r.Name, off = m.Questions[0].Name, off+2
	} else if r.Name, off, err = oracleReadName(data, off); err != nil {
		return r, off, err
	}
	if off+10 > len(data) {
		return r, off, ErrShortMessage
	}
	r.Type = Type(binary.BigEndian.Uint16(data[off:]))
	r.Class = Class(binary.BigEndian.Uint16(data[off+2:]))
	r.TTL = binary.BigEndian.Uint32(data[off+4:])
	rdlen := int(binary.BigEndian.Uint16(data[off+8:]))
	off += 10
	if off+rdlen > len(data) {
		return r, off, ErrShortMessage
	}
	rdata := data[off : off+rdlen]
	switch r.Type {
	case TypeA:
		if rdlen != 4 {
			return r, off, fmt.Errorf("%w: A RDATA length %d", ErrBadRecord, rdlen)
		}
		r.A = netip.AddrFrom4([4]byte(rdata))
	case TypeNS, TypeCNAME:
		// Names in RDATA may use compression pointers into the full message.
		r.Target, _, err = oracleReadName(data, off)
		if err != nil {
			return r, off, err
		}
	case TypeTXT:
		for p := 0; p < rdlen; {
			l := int(rdata[p])
			p++
			if p+l > rdlen {
				return r, off, fmt.Errorf("%w: TXT string overruns RDATA", ErrBadRecord)
			}
			r.Text = append(r.Text, string(rdata[p:p+l]))
			p += l
		}
	case TypeSOA:
		soa := &SOAData{}
		p := off
		soa.MName, p, err = oracleReadName(data, p)
		if err != nil {
			return r, off, err
		}
		soa.RName, p, err = oracleReadName(data, p)
		if err != nil {
			return r, off, err
		}
		if p+20 > len(data) || p+20 > off+rdlen {
			return r, off, ErrShortMessage
		}
		soa.Serial = binary.BigEndian.Uint32(data[p:])
		soa.Refresh = binary.BigEndian.Uint32(data[p+4:])
		soa.Retry = binary.BigEndian.Uint32(data[p+8:])
		soa.Expire = binary.BigEndian.Uint32(data[p+12:])
		soa.MinTTL = binary.BigEndian.Uint32(data[p+16:])
		r.SOA = soa
	default:
		return r, off, fmt.Errorf("%w: unsupported type %v", ErrBadRecord, r.Type)
	}
	return r, off + rdlen, nil
}

// oracleReadName decodes a possibly-compressed name starting at off, returning the
// canonical dotted name and the offset just past the name's in-place bytes.
func oracleReadName(data []byte, off int) (string, int, error) {
	// Accumulate into a stack buffer so the whole decode costs exactly one
	// allocation (the final string). 256 bytes covers every legal name: the
	// dotted form of a maximal name is 255 bytes, which the n > 255 check
	// below rejects anyway.
	var nb [256]byte
	n := 0
	jumped := false
	end := off
	hops := 0
	for {
		if off >= len(data) {
			return "", end, ErrShortMessage
		}
		b := data[off]
		switch {
		case b == 0:
			if !jumped {
				end = off + 1
			}
			if n == 0 {
				return ".", end, nil
			}
			if n > 255 {
				return "", end, ErrNameTooLong
			}
			return string(nb[:n]), end, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(data) {
				return "", end, ErrShortMessage
			}
			ptr := int(binary.BigEndian.Uint16(data[off:]) & 0x3FFF)
			if !jumped {
				end = off + 2
				jumped = true
			}
			hops++
			if hops > 64 || ptr >= off {
				return "", end, ErrPointerLoop
			}
			off = ptr
		case b&0xC0 != 0:
			return "", end, ErrBadName
		default:
			l := int(b)
			if off+1+l > len(data) {
				return "", end, ErrShortMessage
			}
			if n+l+1 > len(nb) {
				return "", end, ErrNameTooLong
			}
			n += copy(nb[n:], data[off+1:off+1+l])
			nb[n] = '.'
			n++
			off += 1 + l
		}
	}
}
