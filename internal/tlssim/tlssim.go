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
// Intercept expresses that replacement as a rewrite of the chunks a tunnel
// relays, so an intercepted tunnel runs on the same relay as a transparent
// one.
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
	"sync/atomic"

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
// (unknown server name). A server writes the record as it is and never
// modifies it, so one record may answer every handshake.
type RecordSource func(serverName string) []byte

// FrameChain encodes chain as a complete certificate record, header
// included, in one allocation. A chain too large for a record frames as
// an alert, which is what a server that cannot send its chain answers.
func FrameChain(chain []*cert.Certificate) []byte {
	n := cert.ChainSize(chain)
	if n > MaxRecordSize {
		return alertRecord("certificate chain exceeds the record size")
	}
	return cert.AppendChain(appendHeader(make([]byte, 0, 4+n), RecordCertificates, n), chain)
}

// alertRecord frames an alert carrying msg, header included, in one
// buffer.
func alertRecord(msg string) []byte {
	return append(appendHeader(make([]byte, 0, 4+len(msg)), RecordAlert, len(msg)), msg...)
}

// ServeOnce performs the server side for a single handshake on rw: it
// reads the hello and writes Answer's record for it in one Write. A
// first record that is no well-formed hello is answered with nothing.
// It has no production caller: every site answers on its stream's
// readiness callbacks (origin.FramedTLSSite), a real socket's too, through
// simnet.AsStream. This blocking form is the reference the readiness site
// is held to, byte for byte and close for close.
func ServeOnce(rw io.ReadWriter, records RecordSource) error {
	rec, err := ReadRecord(rw)
	if err != nil {
		return err
	}
	answer, err := Answer(rec.Type, rec.Payload, records)
	if err != nil {
		return err
	}
	_, err = rw.Write(answer)
	return err
}

// Answer decodes a client's first record, of type typ, and returns the
// record a server answers it with: the one records supplies for the
// hello's SNI, or an alert when it supplies none. A record that is not a
// well-formed hello returns ErrUnexpected or ParseHello's error, and is
// answered with nothing. It is the hello decoder of every server:
// ServeOnce's, and the event-driven sites' that gather the record from a
// stream's readiness callbacks (origin.FramedTLSSite).
func Answer(typ RecordType, payload []byte, records RecordSource) ([]byte, error) {
	if typ != RecordClientHello {
		return nil, fmt.Errorf("%w: %d", ErrUnexpected, typ)
	}
	sni, err := ParseHello(payload)
	if err != nil {
		return nil, err
	}
	if framed := records(sni); framed != nil {
		return framed, nil
	}
	return alertRecord("unrecognized name: " + sni), nil
}

// ChainInterceptor rewrites a server's certificate chain in flight. The
// serverName comes from the observed ClientHello. Interceptors that act
// conditionally (OpenDNS only MITMs valid-cert sites; several AV products
// launder invalid ones, §6.2) validate the original chain themselves.
// Returning nil leaves the original chain untouched.
type ChainInterceptor func(serverName string, original []*cert.Certificate) []*cert.Certificate

// Intercept returns the rewrites an exit node's tunnel relays a
// handshake through when icept sits on its path (nil icept is
// transparent): c2s for the client's chunks, s2c for the server's. Each
// holds its direction's first record back until it is whole. The client's
// hello is forwarded as it arrived, and its SNI kept. The server's first
// record, if it carries certificates icept replaces, becomes
// FrameChain(replacement); any other record is forwarded as it arrived.
// Every byte after a direction's first record passes through untouched.
// A malformed first record stops its direction: nothing more is
// forwarded, and end, called once the tunnel is over, reports why —
// ErrUnexpected, ParseHello's or cert.UnmarshalChain's error, or
// io.ErrUnexpectedEOF for a record cut short. It reports nil when both
// directions' first records arrived well formed, or never started.
//
// A relay calls each rewrite from one goroutine at a time, the two
// directions possibly from two, and takes a chunk's output before passing
// the next chunk; the output may alias the chunk. The rewrites never
// block: they run inside the event core's splice kicks.
func Intercept(icept ChainInterceptor) (c2s, s2c func([]byte) []byte, end func() error) {
	var hs struct {
		sni           atomic.Value // string: all the two directions share
		hello, answer firstRecord
	}
	c2s = func(chunk []byte) []byte {
		return hs.hello.pass(chunk, func(rec []byte) ([]byte, error) {
			if RecordType(rec[0]) != RecordClientHello {
				return nil, fmt.Errorf("%w: %d", ErrUnexpected, rec[0])
			}
			sni, err := ParseHello(rec[4:])
			hs.sni.Store(sni)
			return rec, err
		})
	}
	s2c = func(chunk []byte) []byte {
		return hs.answer.pass(chunk, func(rec []byte) ([]byte, error) {
			if RecordType(rec[0]) != RecordCertificates || icept == nil {
				return rec, nil
			}
			chain, err := cert.UnmarshalChain(rec[4:])
			if err != nil {
				return nil, err
			}
			sni, _ := hs.sni.Load().(string)
			if replaced := icept(sni, chain); replaced != nil {
				return FrameChain(replaced), nil
			}
			return rec, nil
		})
	}
	end = func() error {
		if err := hs.hello.end(); err != nil {
			return err
		}
		return hs.answer.end()
	}
	return c2s, s2c, end
}

// firstRecord is one direction's progress through its first record.
type firstRecord struct {
	held []byte // the record so far, when it spans chunks
	done bool   // the first record was whole and checked
	err  error  // the check's verdict: nothing passes once set
}

// pass relays chunk through the direction: nothing until the first record
// is whole, then the record check returns for it (the record itself, or
// its replacement), then every byte untouched. Only a record that spans
// chunks is copied.
func (f *firstRecord) pass(chunk []byte, check func(rec []byte) ([]byte, error)) []byte {
	switch {
	case f.err != nil:
		return nil
	case f.done:
		return chunk
	case f.held != nil:
		f.held = append(f.held, chunk...)
		chunk = f.held
	}
	n := 4
	if len(chunk) >= n {
		n += int(chunk[1])<<16 | int(chunk[2])<<8 | int(chunk[3])
	}
	if len(chunk) < n {
		if f.held == nil {
			f.held = append([]byte(nil), chunk...)
		}
		return nil
	}
	f.held, f.done = nil, true
	out, err := check(chunk[:n])
	if f.err = err; err != nil {
		return nil
	}
	// When out is the record itself, this appends the rest in place.
	return append(out, chunk[n:]...)
}

// end reports what the direction left behind.
func (f *firstRecord) end() error {
	if f.err == nil && f.held != nil {
		return io.ErrUnexpectedEOF
	}
	return f.err
}
