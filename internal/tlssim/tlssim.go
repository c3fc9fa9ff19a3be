// Package tlssim implements the record-framed handshake the HTTPS
// experiment (§6) drives through CONNECT tunnels: the client sends a hello
// naming the server (SNI), the server answers with its certificate chain,
// and the client hangs up — the paper never requests content, it only
// collects certificates.
//
// Framing matters because the tunnel is a byte pipe: the exit node (and any
// on-path interceptor) sees records, not structures. A man-in-the-middle
// replaces the server's certificate record in flight, which is exactly how
// the AV products, OpenDNS, and the Cloudguard malware of §6.2 operate.
package tlssim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"github.com/tftproject/tft/internal/cert"
)

// RecordType labels a handshake record.
type RecordType uint8

// The protocol's record types.
const (
	RecordClientHello  RecordType = 1
	RecordCertificates RecordType = 2
	RecordAlert        RecordType = 3
)

// MaxRecordSize bounds a record payload (16 MiB framing limit).
const MaxRecordSize = 1<<24 - 1

// maxUpfront is the most ReadRecord allocates on a header's say-so.
const maxUpfront = 64 << 10

// Protocol errors.
var (
	ErrRecordTooLarge = errors.New("tlssim: record exceeds maximum size")
	ErrUnexpected     = errors.New("tlssim: unexpected record type")
	ErrAlert          = errors.New("tlssim: peer sent alert")
)

// Record is one framed protocol message.
type Record struct {
	Type    RecordType
	Payload []byte
}

// WriteRecord frames and writes one record.
func WriteRecord(w io.Writer, typ RecordType, payload []byte) error {
	if len(payload) > MaxRecordSize {
		return ErrRecordTooLarge
	}
	hdr := [4]byte{byte(typ), byte(len(payload) >> 16), byte(len(payload) >> 8), byte(len(payload))}
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadRecord reads one framed record.
func ReadRecord(r io.Reader) (Record, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Record{}, err
	}
	n := int(hdr[1])<<16 | int(hdr[2])<<8 | int(hdr[3])
	// The length is four untrusted bytes: allocate for what the peer has
	// actually sent, doubling as payload arrives, never for what it claims.
	payload := make([]byte, min(n, maxUpfront))
	for have := 0; ; {
		if _, err := io.ReadFull(r, payload[have:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the header promised more
			}
			return Record{}, err
		}
		if have = len(payload); have == n {
			return Record{Type: RecordType(hdr[0]), Payload: payload}, nil
		}
		grown := make([]byte, min(n, 2*have))
		copy(grown, payload)
		payload = grown
	}
}

// marshalHello encodes a ClientHello payload carrying the SNI.
func marshalHello(serverName string) []byte {
	b := make([]byte, 0, 2+len(serverName))
	b = binary.BigEndian.AppendUint16(b, uint16(len(serverName)))
	return append(b, serverName...)
}

// ParseHello decodes a ClientHello payload.
func ParseHello(payload []byte) (serverName string, err error) {
	if len(payload) < 2 {
		return "", fmt.Errorf("tlssim: short hello")
	}
	n := int(binary.BigEndian.Uint16(payload))
	if len(payload) != 2+n {
		return "", fmt.Errorf("tlssim: hello length mismatch")
	}
	return string(payload[2:]), nil
}

// CollectChain performs the client side of the handshake over rw: it sends
// a hello for serverName and returns the certificate chain the peer
// presents. This is the §6.1 operation — connect, record certificates,
// terminate without requesting content.
func CollectChain(rw io.ReadWriter, serverName string) ([]*cert.Certificate, error) {
	if err := WriteRecord(rw, RecordClientHello, marshalHello(serverName)); err != nil {
		return nil, err
	}
	rec, err := ReadRecord(rw)
	if err != nil {
		return nil, err
	}
	switch rec.Type {
	case RecordCertificates:
		return cert.UnmarshalChain(rec.Payload)
	case RecordAlert:
		return nil, fmt.Errorf("%w: %s", ErrAlert, rec.Payload)
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnexpected, rec.Type)
	}
}

// ChainSource supplies a server's certificate chain for an SNI value. A nil
// return produces an alert (unknown server name).
type ChainSource func(serverName string) []*cert.Certificate

// ServeOnce performs the server side for a single handshake on rw.
func ServeOnce(rw io.ReadWriter, chains ChainSource) error {
	rec, err := ReadRecord(rw)
	if err != nil {
		return err
	}
	if rec.Type != RecordClientHello {
		return fmt.Errorf("%w: %d", ErrUnexpected, rec.Type)
	}
	sni, err := ParseHello(rec.Payload)
	if err != nil {
		return err
	}
	chain := chains(sni)
	if chain == nil {
		return WriteRecord(rw, RecordAlert, []byte("unrecognized name: "+sni))
	}
	return WriteRecord(rw, RecordCertificates, cert.MarshalChain(chain))
}

// ChainInterceptor rewrites a server's certificate chain in flight. The
// serverName comes from the observed ClientHello. Interceptors that act
// conditionally (OpenDNS only MITMs valid-cert sites; several AV products
// launder invalid ones, §6.2) validate the original chain themselves.
// Returning nil leaves the original chain untouched.
type ChainInterceptor func(serverName string, original []*cert.Certificate) []*cert.Certificate

// Relay pipes a handshake between client and server, optionally rewriting
// the server's certificate record through icept (nil means transparent).
// This is the exit node's tunnel role: bytes in, bytes out — except when a
// middlebox sits on the path.
func Relay(client, server io.ReadWriter, icept ChainInterceptor) error {
	hello, err := ReadRecord(client)
	if err != nil {
		return err
	}
	if hello.Type != RecordClientHello {
		return fmt.Errorf("%w: %d", ErrUnexpected, hello.Type)
	}
	sni, err := ParseHello(hello.Payload)
	if err != nil {
		return err
	}
	if err := WriteRecord(server, hello.Type, hello.Payload); err != nil {
		return err
	}
	resp, err := ReadRecord(server)
	if err != nil {
		return err
	}
	if resp.Type == RecordCertificates && icept != nil {
		chain, err := cert.UnmarshalChain(resp.Payload)
		if err != nil {
			return err
		}
		if replaced := icept(sni, chain); replaced != nil {
			resp.Payload = cert.MarshalChain(replaced)
		}
	}
	return WriteRecord(client, resp.Type, resp.Payload)
}
