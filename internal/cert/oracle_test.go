package cert

import (
	"encoding/binary"
	"fmt"
	"strings"
	"time"
)

// The decoder as it stood before it read a string: a cursor over bytes, a
// string per name and a struct per certificate. It is kept, unchanged but
// for its names, as the oracle FuzzChainAgreesWithOracle holds Unmarshal
// and UnmarshalChain to: same verdict, same sentinel, the same chain.

// oracleUnmarshal decodes a certificate produced by Marshal.
func oracleUnmarshal(data []byte) (*Certificate, error) {
	d := &oracleDecoder{data: data}
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

// oracleUnmarshalChain decodes a chain produced by MarshalChain.
func oracleUnmarshalChain(data []byte) ([]*Certificate, error) {
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
		c, err := oracleUnmarshal(data[off : off+l])
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

// oracleDecoder is a cursor with sticky error handling.
type oracleDecoder struct {
	data []byte
	off  int
	err  error
}

func (d *oracleDecoder) fail() {
	if d.err == nil {
		d.err = ErrDecode
	}
}

func (d *oracleDecoder) byte() byte {
	if d.err != nil || d.off+1 > len(d.data) {
		d.fail()
		return 0
	}
	v := d.data[d.off]
	d.off++
	return v
}

func (d *oracleDecoder) uint16() uint16 {
	if d.err != nil || d.off+2 > len(d.data) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(d.data[d.off:])
	d.off += 2
	return v
}

func (d *oracleDecoder) uint64() uint64 {
	if d.err != nil || d.off+8 > len(d.data) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.data[d.off:])
	d.off += 8
	return v
}

func (d *oracleDecoder) string() string {
	n := int(d.uint16())
	if d.err != nil || d.off+n > len(d.data) {
		d.fail()
		return ""
	}
	s := string(d.data[d.off : d.off+n])
	d.off += n
	return s
}

func (d *oracleDecoder) name() Name {
	return Name{CommonName: d.string(), Organization: d.string(), Country: d.string()}
}

func (d *oracleDecoder) copy(dst []byte) {
	if d.err != nil || d.off+len(dst) > len(d.data) {
		d.fail()
		return
	}
	copy(dst, d.data[d.off:])
	d.off += len(dst)
}

// oracleMatchesHostname is MatchesHostname as it stood before it compared
// without building: a slice of names, each name and the host lower-cased.
// TestMatchesHostnameAgreesWithToLower holds the new one to its verdicts.
func oracleMatchesHostname(c *Certificate, host string) bool {
	host = strings.ToLower(strings.TrimSuffix(host, "."))
	names := append([]string{c.Subject.CommonName}, c.DNSNames...)
	for _, n := range names {
		n = strings.ToLower(strings.TrimSuffix(n, "."))
		if n == host {
			return true
		}
		if rest, ok := strings.CutPrefix(n, "*."); ok {
			if i := strings.IndexByte(host, '.'); i > 0 && host[i+1:] == rest {
				return true
			}
		}
	}
	return false
}
