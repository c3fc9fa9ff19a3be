package cert

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// Wire encoding for certificates and chains, used by the tlssim handshake.
// The format is a simple length-prefixed TLV; it has no compatibility
// obligations beyond this repository.

// ErrDecode reports malformed certificate bytes.
var ErrDecode = errors.New("cert: malformed certificate encoding")

const wireVersion = 1

// Marshal encodes a certificate.
func (c *Certificate) Marshal() []byte {
	return c.appendMarshal(make([]byte, 0, c.wireSize()))
}

// appendMarshal appends the encoding of c to b.
func (c *Certificate) appendMarshal(b []byte) []byte {
	b = append(b, wireVersion)
	b = binary.BigEndian.AppendUint64(b, c.SerialNumber)
	b = appendName(b, c.Subject)
	b = appendName(b, c.Issuer)
	b = binary.BigEndian.AppendUint64(b, uint64(c.NotBefore.Unix()))
	b = binary.BigEndian.AppendUint64(b, uint64(c.NotAfter.Unix()))
	if c.IsCA {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = append(b, c.PublicKey[:]...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(c.DNSNames)))
	for _, dn := range c.DNSNames {
		b = appendString(b, dn)
	}
	return append(b, c.Signature[:]...)
}

// wireSize is len(c.Marshal()), by arithmetic.
func (c *Certificate) wireSize() int {
	n := 1 + 8 + nameSize(c.Subject) + nameSize(c.Issuer) + 8 + 8 + 1 + len(c.PublicKey) + 2 + len(c.Signature)
	for _, dn := range c.DNSNames {
		n += 2 + len(dn)
	}
	return n
}

// Unmarshal decodes a certificate produced by Marshal.
func Unmarshal(data []byte) (*Certificate, error) {
	d := &decoder{data: data}
	if v := d.byte(); v != wireVersion {
		return nil, fmt.Errorf("%w: version %d", ErrDecode, v)
	}
	c := &Certificate{}
	c.SerialNumber = d.uint64()
	c.Subject = d.name()
	c.Issuer = d.name()
	c.NotBefore = time.Unix(int64(d.uint64()), 0).UTC()
	c.NotAfter = time.Unix(int64(d.uint64()), 0).UTC()
	c.IsCA = d.byte() == 1
	d.copy(c.PublicKey[:])
	n := int(d.uint16())
	if n > 256 {
		return nil, fmt.Errorf("%w: %d DNS names", ErrDecode, n)
	}
	for i := 0; i < n; i++ {
		c.DNSNames = append(c.DNSNames, d.string())
	}
	d.copy(c.Signature[:])
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrDecode, len(data)-d.off)
	}
	return c, nil
}

// MarshalChain encodes a chain, leaf first.
func MarshalChain(chain []*Certificate) []byte {
	b := make([]byte, 0, ChainSize(chain))
	b = binary.BigEndian.AppendUint16(b, uint16(len(chain)))
	for _, c := range chain {
		b = binary.BigEndian.AppendUint32(b, uint32(c.wireSize()))
		b = c.appendMarshal(b)
	}
	return b
}

// ChainSize is len(MarshalChain(chain)) without encoding anything: what a
// chain cost on the wire, for callers that only account for it.
func ChainSize(chain []*Certificate) int {
	n := 2
	for _, c := range chain {
		n += 4 + c.wireSize()
	}
	return n
}

// UnmarshalChain decodes a chain produced by MarshalChain.
func UnmarshalChain(data []byte) ([]*Certificate, error) {
	if len(data) < 2 {
		return nil, ErrDecode
	}
	n := int(binary.BigEndian.Uint16(data))
	if n > 64 {
		return nil, fmt.Errorf("%w: chain of %d certificates", ErrDecode, n)
	}
	off := 2
	chain := make([]*Certificate, 0, n)
	for i := 0; i < n; i++ {
		if off+4 > len(data) {
			return nil, ErrDecode
		}
		l := int(binary.BigEndian.Uint32(data[off:]))
		off += 4
		if off+l > len(data) {
			return nil, ErrDecode
		}
		c, err := Unmarshal(data[off : off+l])
		if err != nil {
			return nil, err
		}
		chain = append(chain, c)
		off += l
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: trailing bytes after chain", ErrDecode)
	}
	return chain, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func nameSize(n Name) int {
	return 2 + len(n.CommonName) + 2 + len(n.Organization) + 2 + len(n.Country)
}

func appendName(b []byte, n Name) []byte {
	b = appendString(b, n.CommonName)
	b = appendString(b, n.Organization)
	return appendString(b, n.Country)
}

// decoder is a cursor with sticky error handling.
type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrDecode
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || d.off+1 > len(d.data) {
		d.fail()
		return 0
	}
	v := d.data[d.off]
	d.off++
	return v
}

func (d *decoder) uint16() uint16 {
	if d.err != nil || d.off+2 > len(d.data) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(d.data[d.off:])
	d.off += 2
	return v
}

func (d *decoder) uint64() uint64 {
	if d.err != nil || d.off+8 > len(d.data) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.data[d.off:])
	d.off += 8
	return v
}

func (d *decoder) string() string {
	n := int(d.uint16())
	if d.err != nil || d.off+n > len(d.data) {
		d.fail()
		return ""
	}
	s := string(d.data[d.off : d.off+n])
	d.off += n
	return s
}

func (d *decoder) name() Name {
	return Name{CommonName: d.string(), Organization: d.string(), Country: d.string()}
}

func (d *decoder) copy(dst []byte) {
	if d.err != nil || d.off+len(dst) > len(d.data) {
		d.fail()
		return
	}
	copy(dst, d.data[d.off:])
	d.off += len(dst)
}
