package tlssim

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"github.com/tftproject/tft/internal/cert"
)

// oracleRelay is the exit node's intercepting relay as it stood before
// Intercept: it reads the client's hello, forwards it, reads the server's
// answer, rewrites a certificate record through icept, forwards the result
// and stops. Intercept must agree with it on everything a handshake sees.
func oracleRelay(client, server io.ReadWriter, icept ChainInterceptor) error {
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

// scripted is one side of the oracle's tunnel: it reads what the peer
// sent and records what the relay forwards to it.
type scripted struct {
	io.Reader
	got bytes.Buffer
}

func (s *scripted) Write(p []byte) (int, error) { return s.got.Write(p) }

// relayChunks feeds in through rewrite in the chunk sizes cuts names,
// cycling through them, the way a relay does: from one reused buffer,
// which is scribbled over once each output has been taken.
func relayChunks(in, cuts []byte, rewrite func([]byte) []byte) []byte {
	var out []byte
	buf := make([]byte, len(in))
	for i, k := 0, 0; i < len(in); k++ {
		n := len(in) - i
		if len(cuts) > 0 {
			n = min(n, 1+int(cuts[k%len(cuts)]))
		}
		copy(buf, in[i:i+n])
		out = append(out, rewrite(buf[:n])...)
		for j := range buf[:n] {
			buf[j] = 0xAA
		}
		i += n
	}
	return out
}

// fuzzInterceptor replaces the chain of every server name of even length
// with one naming it, so both the SNI and the pass-through branch count.
func fuzzInterceptor(sni string, _ []*cert.Certificate) []*cert.Certificate {
	if len(sni)%2 != 0 {
		return nil
	}
	return []*cert.Certificate{{SerialNumber: 7, Subject: cert.Name{CommonName: sni}}}
}

// recordEnd is where data's first record ends, or 0 if it is not whole.
func recordEnd(data []byte) int {
	if len(data) < 4 {
		return 0
	}
	n := 4 + (int(data[1])<<16 | int(data[2])<<8 | int(data[3]))
	if n > len(data) {
		return 0
	}
	return n
}

// FuzzInterceptAgreesWithRelay: for any client bytes, server bytes and
// chunk boundaries, each side receives from Intercept what it received
// from the relay it replaced, followed by the rest of what its peer sent,
// and the tunnel ends in the same error. The server answers only once the
// hello has reached it, as a server does.
func FuzzInterceptAgreesWithRelay(f *testing.F) {
	root := cert.NewRootCA(cert.Name{CommonName: "Root"}, "r", epoch.Add(-1), 1<<40)
	chain := FrameChain([]*cert.Certificate{root.Cert})
	f.Add(helloRecord("www.example.org"), chain, []byte{})
	f.Add(helloRecord("www.example.com"), chain, []byte{6})
	f.Add(append(helloRecord("ab"), "trailing"...), append(chain, "more"...), []byte{2, 0, 9})
	f.Add(helloRecord("ab"), chain[:len(chain)-3], []byte{1})
	f.Add(helloRecord("ab"), []byte{byte(RecordCertificates), 0, 0, 2, 0, 9}, []byte{})
	f.Add(helloRecord("ab"), append(appendHeader(nil, RecordAlert, 3), "bye"...), []byte{3})
	f.Add(helloRecord("ab")[:5], chain, []byte{})
	f.Add([]byte{byte(RecordClientHello), 0, 0, 3, 0, 9, 'x'}, chain, []byte{})
	f.Add(append(appendHeader(nil, RecordAlert, 1), 'x'), chain, []byte{})
	f.Add([]byte{}, chain, []byte{})
	f.Fuzz(func(t *testing.T, fromClient, fromServer, cuts []byte) {
		client := &scripted{Reader: bytes.NewReader(fromClient)}
		server := &scripted{Reader: bytes.NewReader(fromServer)}
		want := oracleRelay(client, server, fuzzInterceptor)
		if errors.Is(want, io.EOF) {
			want = nil // the ordinary end of a tunnel
		}

		c2s, s2c, end := Intercept(fuzzInterceptor)
		toServer := relayChunks(fromClient, cuts, c2s)
		var toClient []byte
		if len(toServer) > 0 {
			toClient = relayChunks(fromServer, cuts, s2c)
		}
		got := end()

		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("end() = %v, the relay returned %v", got, want)
		}
		for _, leg := range []struct {
			name        string
			got, oracle []byte
			sent        []byte
		}{
			{"server", toServer, server.got.Bytes(), fromClient},
			{"client", toClient, client.got.Bytes(), fromServer},
		} {
			wantLeg := leg.oracle
			if len(wantLeg) > 0 {
				wantLeg = append(bytes.Clone(wantLeg), leg.sent[recordEnd(leg.sent):]...)
			}
			if !bytes.Equal(leg.got, wantLeg) {
				t.Fatalf("the %s received %q, want %q", leg.name, leg.got, wantLeg)
			}
		}
	})
}
