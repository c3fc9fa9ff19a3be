package tlssim

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"github.com/tftproject/tft/internal/cert"
)

var epoch = time.Date(2016, 4, 14, 0, 0, 0, 0, time.UTC)

func sitePKI(t *testing.T) (*cert.Store, *cert.CA, []*cert.Certificate) {
	t.Helper()
	root := cert.NewRootCA(cert.Name{CommonName: "Root"}, "r", epoch.Add(-time.Hour), 1000*time.Hour)
	leaf := root.Issue(cert.Template{
		Subject:   cert.Name{CommonName: "www.example.org"},
		NotBefore: epoch.Add(-time.Hour), NotAfter: epoch.Add(1000 * time.Hour),
		KeySeed: "site",
	})
	return cert.NewStore(root.Cert), root, []*cert.Certificate{leaf, root.Cert}
}

func TestRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRecord(&buf, RecordClientHello, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	rec, err := ReadRecord(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Type != RecordClientHello || string(rec.Payload) != "payload" {
		t.Fatalf("rec = %+v", rec)
	}
}

func TestRecordTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRecord(&buf, RecordAlert, make([]byte, MaxRecordSize+1)); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadRecordTruncated(t *testing.T) {
	if _, err := ReadRecord(bytes.NewReader([]byte{1, 0, 0})); err == nil {
		t.Fatal("short header accepted")
	}
	if _, err := ReadRecord(bytes.NewReader([]byte{1, 0, 0, 5, 'a', 'b'})); err == nil {
		t.Fatal("short payload accepted")
	}
}

// TestReadRecordAllocatesForWhatArrives: the length field is four bytes an
// exit node controls. A header that claims the maximum and then stalls or
// hangs up must not cost the client 16 MiB per tunnel, and a record that
// does arrive in full must come back intact however many growth steps it
// took.
func TestReadRecordAllocatesForWhatArrives(t *testing.T) {
	hdr := []byte{byte(RecordCertificates), 0xff, 0xff, 0xff}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadRecord(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("header then EOF: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 128<<10 {
		t.Fatalf("a 4-byte header made ReadRecord allocate %d KB; want under 128 KB", got>>10)
	}

	if _, err := ReadRecord(bytes.NewReader(append(hdr, make([]byte, 100<<10)...))); err != io.ErrUnexpectedEOF {
		t.Fatalf("record cut after its first chunk: err = %v, want io.ErrUnexpectedEOF", err)
	}

	for _, n := range []int{0, 1, maxUpfront - 1, maxUpfront, maxUpfront + 1, 3*maxUpfront + 7, 1 << 20} {
		payload := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(payload)
		var buf bytes.Buffer
		if err := WriteRecord(&buf, RecordCertificates, payload); err != nil {
			t.Fatal(err)
		}
		rec, err := ReadRecord(&buf)
		if err != nil || !bytes.Equal(rec.Payload, payload) {
			t.Fatalf("%d-byte record: err = %v, payload intact = %v", n, err, bytes.Equal(rec.Payload, payload))
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	sni, err := ParseHello(marshalHello("www.example.org"))
	if err != nil || sni != "www.example.org" {
		t.Fatalf("sni = %q, err = %v", sni, err)
	}
	if _, err := ParseHello([]byte{0}); err == nil {
		t.Fatal("short hello accepted")
	}
	if _, err := ParseHello([]byte{0, 3, 'a'}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestClientServerHandshake(t *testing.T) {
	store, _, chain := sitePKI(t)
	c, s := net.Pipe()
	defer c.Close()
	go func() {
		defer s.Close()
		ServeOnce(s, func(sni string) []*cert.Certificate {
			if sni != "www.example.org" {
				return nil
			}
			return chain
		})
	}()
	got, err := CollectChain(c, "www.example.org")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("chain length = %d", len(got))
	}
	if err := store.Verify("www.example.org", got, epoch); err != nil {
		t.Fatalf("collected chain invalid: %v", err)
	}
}

func TestUnknownSNIGetsAlert(t *testing.T) {
	_, _, chain := sitePKI(t)
	c, s := net.Pipe()
	defer c.Close()
	go func() {
		defer s.Close()
		ServeOnce(s, func(sni string) []*cert.Certificate {
			if sni == "www.example.org" {
				return chain
			}
			return nil
		})
	}()
	_, err := CollectChain(c, "nonexistent.example.org")
	if !errors.Is(err, ErrAlert) {
		t.Fatalf("err = %v, want ErrAlert", err)
	}
}

// relayPair runs a client handshake through a Relay to a server, returning
// the chain the client sees.
func relayPair(t *testing.T, chain []*cert.Certificate, icept ChainInterceptor) []*cert.Certificate {
	t.Helper()
	clientEnd, relayClientSide := net.Pipe()
	relayServerSide, serverEnd := net.Pipe()
	defer clientEnd.Close()
	go func() {
		defer serverEnd.Close()
		ServeOnce(serverEnd, func(string) []*cert.Certificate { return chain })
	}()
	go func() {
		defer relayClientSide.Close()
		defer relayServerSide.Close()
		if err := Relay(relayClientSide, relayServerSide, icept); err != nil && !errors.Is(err, io.EOF) {
			t.Logf("relay: %v", err)
		}
	}()
	got, err := CollectChain(clientEnd, "www.example.org")
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestTransparentRelay(t *testing.T) {
	store, _, chain := sitePKI(t)
	got := relayPair(t, chain, nil)
	if err := store.Verify("www.example.org", got, epoch); err != nil {
		t.Fatalf("transparent relay corrupted chain: %v", err)
	}
	if got[0].Fingerprint() != chain[0].Fingerprint() {
		t.Fatal("leaf fingerprint changed through transparent relay")
	}
}

func TestMITMRelayReplacesChain(t *testing.T) {
	store, _, chain := sitePKI(t)
	avRoot := cert.NewRootCA(cert.Name{CommonName: "Avast Web/Mail Shield Root"}, "avast",
		epoch.Add(-time.Hour), 1000*time.Hour)
	icept := func(sni string, orig []*cert.Certificate) []*cert.Certificate {
		spoof := avRoot.Issue(cert.Template{
			Subject:   cert.Name{CommonName: sni},
			NotBefore: epoch.Add(-time.Hour), NotAfter: epoch.Add(100 * time.Hour),
			KeySeed: "av-shared",
		})
		return []*cert.Certificate{spoof, avRoot.Cert}
	}
	got := relayPair(t, chain, icept)
	err := store.Verify("www.example.org", got, epoch)
	if !errors.Is(err, cert.ErrUntrustedRoot) {
		t.Fatalf("MITM chain verification = %v, want ErrUntrustedRoot", err)
	}
	if got[0].Issuer.CommonName != "Avast Web/Mail Shield Root" {
		t.Fatalf("issuer = %q", got[0].Issuer.CommonName)
	}
	// The original cert never reaches the client.
	if got[0].Fingerprint() == chain[0].Fingerprint() {
		t.Fatal("original leaf leaked through MITM")
	}
}

func TestSelectiveInterceptorPassthrough(t *testing.T) {
	// Returning nil from the interceptor means "do not replace" — §6.2
	// observed selective replacement.
	store, _, chain := sitePKI(t)
	icept := func(sni string, orig []*cert.Certificate) []*cert.Certificate { return nil }
	got := relayPair(t, chain, icept)
	if err := store.Verify("www.example.org", got, epoch); err != nil {
		t.Fatalf("selective passthrough corrupted chain: %v", err)
	}
}

func TestServeOnceRejectsNonHello(t *testing.T) {
	c, s := net.Pipe()
	defer c.Close()
	errCh := make(chan error, 1)
	go func() {
		defer s.Close()
		errCh <- ServeOnce(s, func(string) []*cert.Certificate { return nil })
	}()
	WriteRecord(c, RecordAlert, []byte("x"))
	if err := <-errCh; !errors.Is(err, ErrUnexpected) {
		t.Fatalf("err = %v, want ErrUnexpected", err)
	}
}

// Property: records of arbitrary payloads round-trip through the framing.
func TestPropertyRecordRoundTrip(t *testing.T) {
	f := func(typ uint8, payload []byte) bool {
		var buf bytes.Buffer
		if err := WriteRecord(&buf, RecordType(typ), payload); err != nil {
			return false
		}
		rec, err := ReadRecord(&buf)
		if err != nil {
			return false
		}
		return rec.Type == RecordType(typ) && bytes.Equal(rec.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: hello parsing accepts exactly what marshalHello produces.
func TestPropertyHelloRoundTrip(t *testing.T) {
	f := func(sni string) bool {
		if len(sni) > 65535 {
			sni = sni[:65535]
		}
		got, err := ParseHello(marshalHello(sni))
		return err == nil && got == sni
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReadRecordGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		buf := make([]byte, rng.Intn(40))
		rng.Read(buf)
		ReadRecord(bytes.NewReader(buf)) // must not panic
	}
}
