package tlssim

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/tftproject/tft/internal/cert"
	"github.com/tftproject/tft/internal/simnet"
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

// framed serves a chain source the way origin.TLSSite does: a record
// framed per handshake.
func framed(chains ChainSource) RecordSource {
	return func(sni string) []byte {
		if chain := chains(sni); chain != nil {
			return FrameChain(chain)
		}
		return nil
	}
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
	sni, err := ParseHello(helloRecord("www.example.org")[4:])
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
		ServeOnce(s, framed(func(sni string) []*cert.Certificate {
			if sni != "www.example.org" {
				return nil
			}
			return chain
		}))
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
		ServeOnce(s, framed(func(sni string) []*cert.Certificate {
			if sni == "www.example.org" {
				return chain
			}
			return nil
		}))
	}()
	_, err := CollectChain(c, "nonexistent.example.org")
	if !errors.Is(err, ErrAlert) {
		t.Fatalf("err = %v, want ErrAlert", err)
	}
}

// relayPair runs a client handshake through Intercept's rewrites to a
// server, one goroutine a direction as a blocking relay runs them,
// returning the chain the client sees.
func relayPair(t *testing.T, chain []*cert.Certificate, icept ChainInterceptor) []*cert.Certificate {
	t.Helper()
	clientEnd, relayClientSide := net.Pipe()
	relayServerSide, serverEnd := net.Pipe()
	defer clientEnd.Close()
	go func() {
		defer serverEnd.Close()
		ServeOnce(serverEnd, func(string) []byte { return FrameChain(chain) })
	}()
	c2s, s2c, end := Intercept(icept)
	pipe := func(dst, src net.Conn, rewrite func([]byte) []byte, done chan<- struct{}) {
		defer close(done)
		buf := make([]byte, 512)
		for {
			n, err := src.Read(buf)
			if out := rewrite(buf[:n]); len(out) > 0 {
				if _, werr := dst.Write(out); werr != nil {
					break
				}
			}
			if err != nil {
				break
			}
		}
		relayClientSide.Close()
		relayServerSide.Close()
	}
	up, down := make(chan struct{}), make(chan struct{})
	go pipe(relayServerSide, relayClientSide, c2s, up)
	go pipe(relayClientSide, relayServerSide, s2c, down)
	got, err := CollectChain(clientEnd, "www.example.org")
	if err != nil {
		t.Fatal(err)
	}
	clientEnd.Close()
	<-up
	<-down
	if err := end(); err != nil {
		t.Fatalf("end() = %v", err)
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
		errCh <- ServeOnce(s, func(string) []byte { return nil })
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

// Property: hello parsing accepts exactly what helloRecord frames.
func TestPropertyHelloRoundTrip(t *testing.T) {
	f := func(sni string) bool {
		if len(sni) > 65535 {
			sni = sni[:65535]
		}
		got, err := ParseHello(helloRecord(sni)[4:])
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

// writeCounter counts the Writes a record crosses its stream in.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestEachRecordIsOneWrite: the hello, a served record and a relayed or
// alert record each cross the stream in one Write — one ring operation and
// one splice kick, not a header's and then a payload's.
func TestEachRecordIsOneWrite(t *testing.T) {
	_, _, chain := sitePKI(t)
	var w writeCounter
	WriteRecord(&w, RecordAlert, []byte("x"))
	if w.writes != 1 {
		t.Fatalf("WriteRecord took %d Writes", w.writes)
	}
	hello := writeCounter{}
	CollectChain(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(nil), &hello}, "www.example.org")
	if hello.writes != 1 || !bytes.Equal(hello.Bytes(), helloRecord("www.example.org")) {
		t.Fatalf("CollectChain sent its hello in %d Writes: %q", hello.writes, hello.Bytes())
	}
	rec := FrameChain(chain)
	served := writeCounter{}
	if err := ServeOnce(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(hello.Bytes()), &served}, func(string) []byte { return rec }); err != nil {
		t.Fatal(err)
	}
	if served.writes != 1 || !bytes.Equal(served.Bytes(), rec) {
		t.Fatalf("ServeOnce wrote its record in %d Writes", served.writes)
	}
}

// TestFrameChain: a framed chain is the header and MarshalChain's bytes in
// one exactly sized buffer; a chain no record can carry frames as an alert.
func TestFrameChain(t *testing.T) {
	_, _, chain := sitePKI(t)
	rec := FrameChain(chain)
	var want bytes.Buffer
	WriteRecord(&want, RecordCertificates, cert.MarshalChain(chain))
	if !bytes.Equal(rec, want.Bytes()) || cap(rec) != len(rec) {
		t.Fatalf("FrameChain = %d bytes (cap %d), want the %d WriteRecord writes", len(rec), cap(rec), want.Len())
	}
	long := strings.Repeat("n", 1<<16-1)
	huge := *chain[0]
	huge.DNSNames = make([]string, 256)
	for i := range huge.DNSNames {
		huge.DNSNames[i] = long
	}
	got, err := ReadRecord(bytes.NewReader(FrameChain([]*cert.Certificate{&huge})))
	if err != nil || got.Type != RecordAlert {
		t.Fatalf("a %d-byte chain framed as %+v, %v; want an alert", cert.ChainSize([]*cert.Certificate{&huge}), got.Type, err)
	}
}

// TestCollectChainAgainstHostileServer: over a simnet.Pipe, ServeOnce with
// a framed record hands CollectChain the chain intact; a server whose
// certificate record is hostile — a header promising more than follows, a
// payload that is no chain, a record of the wrong type, an alert, a header
// cut short — costs the client an error, never a panic, a hang or a chain.
func TestCollectChainAgainstHostileServer(t *testing.T) {
	_, _, chain := sitePKI(t)
	good := FrameChain(chain)
	retyped := append([]byte{byte(RecordClientHello)}, good[1:]...)
	garbled := append([]byte(nil), good...)
	garbled[4], garbled[5] = 0xff, 0xff // a chain of 65535 certificates
	alert := appendHeader(nil, RecordAlert, 2)
	alert = append(alert, "no"...)
	handshake := func(record []byte) ([]*cert.Certificate, error) {
		c, s := simnet.Pipe(0)
		defer c.Close()
		go func() {
			defer s.Close()
			ServeOnce(s, func(string) []byte { return record })
		}()
		return CollectChain(c, "www.example.org")
	}
	got, err := handshake(good)
	if err != nil || len(got) != len(chain) || got[0].Fingerprint() != chain[0].Fingerprint() || got[1].Fingerprint() != chain[1].Fingerprint() {
		t.Fatalf("honest server: %d certificates, %v", len(got), err)
	}
	for _, tc := range []struct {
		name   string
		record []byte
		want   error
	}{
		{"header promises 1 MiB", append(appendHeader(nil, RecordCertificates, 1<<20), good[4:]...), io.ErrUnexpectedEOF},
		{"header promises the maximum, nothing follows", appendHeader(nil, RecordCertificates, MaxRecordSize), io.ErrUnexpectedEOF},
		{"payload is no chain", garbled, cert.ErrDecode},
		{"wrong record type", retyped, ErrUnexpected},
		{"alert", alert, ErrAlert},
		{"header cut short", good[:2], io.ErrUnexpectedEOF},
		{"nothing at all", []byte{}, io.EOF},
	} {
		got, err := handshake(tc.record)
		if !errors.Is(err, tc.want) || got != nil {
			t.Errorf("%s: %d certificates, err = %v; want %v", tc.name, len(got), err, tc.want)
		}
	}
}

// FuzzReadRecord: a header that lies about its length costs ReadRecord at
// most maxUpfront past the bytes that actually arrived, and a record it
// accepts is the bytes that arrived and round-trips through WriteRecord
// byte for byte.
func FuzzReadRecord(f *testing.F) {
	root := cert.NewRootCA(cert.Name{CommonName: "Root"}, "r", epoch.Add(-time.Hour), 1000*time.Hour)
	f.Add(helloRecord("www.example.org"))
	f.Add(FrameChain([]*cert.Certificate{root.Cert}))
	f.Add([]byte{byte(RecordCertificates), 0xff, 0xff, 0xff})
	f.Add(append([]byte{byte(RecordCertificates), 0xff, 0xff, 0xff}, make([]byte, 100)...))
	f.Add(append(appendHeader(nil, RecordAlert, maxUpfront+5), make([]byte, maxUpfront+1)...))
	f.Add(append(appendHeader(nil, RecordAlert, maxUpfront+5), make([]byte, maxUpfront+5)...))
	f.Add([]byte{1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The least of three readings: ReadRecord allocates the same each
		// time, and the fuzzing worker's own allocations only ever add.
		r := bytes.NewReader(data)
		var rec Record
		var err error
		allocated := ^uint64(0)
		for range 3 {
			r.Reset(data)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rec, err = ReadRecord(r)
			runtime.ReadMemStats(&after)
			allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
		}
		arrived := uint64(max(len(data)-4, 0))
		const slack = 512 // the header
		if err != nil {
			if allocated > maxUpfront+arrived+slack {
				t.Fatalf("a header then %d bytes: ReadRecord allocated %d", arrived, allocated)
			}
			return
		}
		n := 4 + len(rec.Payload)
		if rec.Type != RecordType(data[0]) || !bytes.Equal(rec.Payload, data[4:n]) {
			t.Fatalf("ReadRecord = type %d, %d bytes; not the record that arrived", rec.Type, len(rec.Payload))
		}
		var w bytes.Buffer
		if err := WriteRecord(&w, rec.Type, rec.Payload); err != nil || !bytes.Equal(w.Bytes(), data[:n]) {
			t.Fatalf("WriteRecord of what ReadRecord read: %v, %d bytes, not the %d read", err, w.Len(), n)
		}
		again, err := ReadRecord(&w)
		if err != nil || again.Type != rec.Type || !bytes.Equal(again.Payload, rec.Payload) {
			t.Fatalf("the rewritten record reads back as type %d, %d bytes, %v", again.Type, len(again.Payload), err)
		}
	})
}
