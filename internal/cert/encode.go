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
//
// Decoding reads a string, not bytes. UnmarshalChain converts its input
// once; every name of every certificate it returns is a substring of that
// one string, and the certificates share one backing array, so a chain
// costs three allocations however many names it carries (and one more per
// certificate that has DNS names). A decoded name therefore keeps the whole
// encoding reachable: a caller that retains one past the chain copies it.

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
	d := decoder{data: string(data)}
	c := new(Certificate)
	d.certificate(c)
	if d.err != nil {
		return nil, d.err
	}
	return c, nil
}

// MarshalChain encodes a chain, leaf first.
func MarshalChain(chain []*Certificate) []byte {
	return AppendChain(make([]byte, 0, ChainSize(chain)), chain)
}

// AppendChain appends the encoding MarshalChain returns to b: ChainSize
// bytes, so a caller that frames the chain sizes b once.
func AppendChain(b []byte, chain []*Certificate) []byte {
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

// UnmarshalChain decodes a chain produced by MarshalChain: the data as one
// string, the certificates in one array, and the chain pointing into it.
func UnmarshalChain(data []byte) ([]*Certificate, error) {
	if len(data) < 2 {
		return nil, ErrDecode
	}
	n := int(binary.BigEndian.Uint16(data))
	if n > 64 {
		return nil, fmt.Errorf("%w: chain of %d certificates", ErrDecode, n)
	}
	s := string(data)
	certs := make([]Certificate, n)
	chain := make([]*Certificate, n)
	off := 2
	for i := range certs {
		if off+4 > len(s) {
			return nil, ErrDecode
		}
		l := int(binary.BigEndian.Uint32(data[off:]))
		off += 4
		if off+l > len(s) {
			return nil, ErrDecode
		}
		d := decoder{data: s[off : off+l]}
		d.certificate(&certs[i])
		if d.err != nil {
			return nil, d.err
		}
		chain[i] = &certs[i]
		off += l
	}
	if off != len(s) {
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

// decoder is a cursor over one encoding with sticky error handling. What it
// reads out of a string costs nothing: names are substrings of data.
type decoder struct {
	data string
	off  int
	err  error
}

// certificate decodes the whole of d.data into c — the step Unmarshal and
// UnmarshalChain share. A malformed encoding leaves d.err set and c
// partly filled.
//
//tftlint:hotpath
func (d *decoder) certificate(c *Certificate) {
	if v := d.byte(); v != wireVersion {
		d.reject("version %d", int(v))
		return
	}
	c.SerialNumber = d.uint64()
	c.Subject = d.name()
	c.Issuer = d.name()
	c.NotBefore = time.Unix(int64(d.uint64()), 0).UTC()
	c.NotAfter = time.Unix(int64(d.uint64()), 0).UTC()
	c.IsCA = d.byte() == 1
	d.copy(c.PublicKey[:])
	n := int(d.uint16())
	if n > 256 {
		d.reject("%d DNS names", n)
		return
	}
	if n > 0 {
		c.DNSNames = make([]string, n)
		for i := range c.DNSNames {
			c.DNSNames[i] = d.string()
		}
	}
	d.copy(c.Signature[:])
	if d.err == nil && d.off != len(d.data) {
		d.reject("%d trailing bytes", len(d.data)-d.off)
	}
}

// reject records a malformed encoding with its detail, replacing whatever
// the cursor recorded before. It formats, so the hot step calls it only on
// the way out.
func (d *decoder) reject(format string, n int) {
	d.err = fmt.Errorf("%w: "+format, ErrDecode, n)
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrDecode
	}
}

//tftlint:hotpath
func (d *decoder) byte() byte {
	if d.err != nil || d.off+1 > len(d.data) {
		d.fail()
		return 0
	}
	v := d.data[d.off]
	d.off++
	return v
}

//tftlint:hotpath
func (d *decoder) uint16() uint16 {
	if d.err != nil || d.off+2 > len(d.data) {
		d.fail()
		return 0
	}
	v := uint16(d.data[d.off])<<8 | uint16(d.data[d.off+1])
	d.off += 2
	return v
}

//tftlint:hotpath
func (d *decoder) uint64() uint64 {
	if d.err != nil || d.off+8 > len(d.data) {
		d.fail()
		return 0
	}
	var v uint64
	for end := d.off + 8; d.off < end; d.off++ {
		v = v<<8 | uint64(d.data[d.off])
	}
	return v
}

//tftlint:hotpath
func (d *decoder) string() string {
	n := int(d.uint16())
	if d.err != nil || d.off+n > len(d.data) {
		d.fail()
		return ""
	}
	s := d.data[d.off : d.off+n]
	d.off += n
	return s
}

//tftlint:hotpath
func (d *decoder) name() Name {
	return Name{CommonName: d.string(), Organization: d.string(), Country: d.string()}
}

//tftlint:hotpath
func (d *decoder) copy(dst []byte) {
	if d.err != nil || d.off+len(dst) > len(d.data) {
		d.fail()
		return
	}
	copy(dst, d.data[d.off:])
	d.off += len(dst)
}
