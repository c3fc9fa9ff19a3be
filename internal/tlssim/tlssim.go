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
//
// A handshake is two records, and each crosses its stream in one Write:
// the client builds header and hello in one buffer, and a server answers
// with a record framed before the handshake (FrameChain) — the world's
// sites frame each chain once, when they are built — so serving encodes
// nothing. The client decodes the chain over one string
// (cert.UnmarshalChain).
package tlssim

import (
	"bytes"
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

// appendHeader appends a record header announcing n payload bytes.
func appendHeader(b []byte, typ RecordType, n int) []byte {
	return append(b, byte(typ), byte(n>>16), byte(n>>8), byte(n))
}

// WriteRecord frames and writes one record: header and payload in one
// buffer, crossing w in one Write.
func WriteRecord(w io.Writer, typ RecordType, payload []byte) error {
	if len(payload) > MaxRecordSize {
		return ErrRecordTooLarge
	}
	b := appendHeader(make([]byte, 0, 4+len(payload)), typ, len(payload))
	_, err := w.Write(append(b, payload...))
	return err
}

// ReadRecord reads one framed record.
func ReadRecord(r io.Reader) (Record, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Record{}, err
	}
	n := int(hdr[1])<<16 | int(hdr[2])<<8 | int(hdr[3])
	// The length is three untrusted bytes: allocate for what the peer has
	// actually sent, never for what it claims.
	payload := make([]byte, min(n, maxUpfront))
	if err := readFull(r, payload); err != nil {
		return Record{}, err
	}
	if n > len(payload) {
		var err error
		if payload, err = readRest(r, payload, n); err != nil {
			return Record{}, err
		}
	}
	return Record{Type: RecordType(hdr[0]), Payload: payload}, nil
}

// maxChunks is how many maxUpfront chunks the largest record takes.
const maxChunks = (MaxRecordSize + maxUpfront - 1) / maxUpfront

// readRest reads the rest of an n-byte payload whose first chunk arrived:
// chunk by chunk, each at most maxUpfront and allocated only once the one
// before it is full, then joined. A header that lies costs the bytes the
// peer really sent plus one chunk.
func readRest(r io.Reader, first []byte, n int) ([]byte, error) {
	var chunks [maxChunks][]byte // on the stack: no bookkeeping on the heap
	chunks[0] = first
	k, have := 1, len(first)
	for ; have < n; k++ {
		chunks[k] = make([]byte, min(n-have, maxUpfront))
		if err := readFull(r, chunks[k]); err != nil {
			return nil, err
		}
		have += len(chunks[k])
	}
	return bytes.Join(chunks[:k], nil), nil
}

// readFull fills p from r; an EOF is unexpected, since a header promised
// the bytes.
func readFull(r io.Reader, p []byte) error {
	_, err := io.ReadFull(r, p)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// helloRecord frames a ClientHello carrying the SNI: header and payload in
// one buffer, for one Write.
func helloRecord(serverName string) []byte {
	n := 2 + len(serverName)
	b := appendHeader(make([]byte, 0, 4+n), RecordClientHello, n)
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
// terminate without requesting content. The chain's names share one
// string (cert.UnmarshalChain): a caller that keeps one copies it.
func CollectChain(rw io.ReadWriter, serverName string) ([]*cert.Certificate, error) {
	if _, err := rw.Write(helloRecord(serverName)); err != nil {
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

// RecordSource supplies the framed certificate record (FrameChain) a
// server answers an SNI value with. A nil return produces an alert
// (unknown server name). ServeOnce writes the record as it is and never
// modifies it, so one record may answer every handshake.
type RecordSource func(serverName string) []byte

// FrameChain encodes chain as a complete certificate record, header
// included, in one allocation. A chain too large for a record frames as
// an alert, which is what a server that cannot send its chain answers.
func FrameChain(chain []*cert.Certificate) []byte {
	n := cert.ChainSize(chain)
	if n > MaxRecordSize {
		const msg = "certificate chain exceeds the record size"
		return append(appendHeader(make([]byte, 0, 4+len(msg)), RecordAlert, len(msg)), msg...)
	}
	return cert.AppendChain(appendHeader(make([]byte, 0, 4+n), RecordCertificates, n), chain)
}

// ServeOnce performs the server side for a single handshake on rw: it
// reads the hello and writes the record records supplies for its SNI.
func ServeOnce(rw io.ReadWriter, records RecordSource) error {
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
	framed := records(sni)
	if framed == nil {
		return WriteRecord(rw, RecordAlert, []byte("unrecognized name: "+sni))
	}
	_, err = rw.Write(framed)
	return err
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
			_, err := client.Write(FrameChain(replaced))
			return err
		}
	}
	return WriteRecord(client, resp.Type, resp.Payload)
}
