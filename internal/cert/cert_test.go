package cert

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var epoch = time.Date(2016, 4, 14, 0, 0, 0, 0, time.UTC)

func testPKI(t *testing.T) (*Store, *CA) {
	t.Helper()
	root := NewRootCA(Name{CommonName: "Test Root", Organization: "T", Country: "US"},
		"test-root", epoch.Add(-time.Hour), 10*365*24*time.Hour)
	return NewStore(root.Cert), root
}

func leafTemplate(cn string) Template {
	return Template{
		Subject:   Name{CommonName: cn, Organization: "Site", Country: "US"},
		NotBefore: epoch.Add(-time.Hour),
		NotAfter:  epoch.Add(365 * 24 * time.Hour),
		KeySeed:   "leaf-" + cn,
	}
}

func TestValidChainVerifies(t *testing.T) {
	store, root := testPKI(t)
	leaf := root.Issue(leafTemplate("www.example.org"))
	if err := store.Verify("www.example.org", []*Certificate{leaf, root.Cert}, epoch); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
}

func TestChainWithoutRootVerifies(t *testing.T) {
	// Servers often send only the leaf; validation should still succeed when
	// the leaf is directly signed by a trusted root's key.
	store, root := testPKI(t)
	leaf := root.Issue(leafTemplate("www.example.org"))
	if err := store.Verify("www.example.org", []*Certificate{leaf}, epoch); err != nil {
		t.Fatalf("leaf-only chain rejected: %v", err)
	}
}

func TestIntermediateChain(t *testing.T) {
	store, root := testPKI(t)
	inter := root.IssueIntermediate(Name{CommonName: "Test Intermediate"}, "test-inter",
		epoch.Add(-time.Hour), 5*365*24*time.Hour)
	leaf := inter.Issue(leafTemplate("api.example.org"))
	chain := []*Certificate{leaf, inter.Cert, root.Cert}
	if err := store.Verify("api.example.org", chain, epoch); err != nil {
		t.Fatalf("intermediate chain rejected: %v", err)
	}
}

func TestUntrustedRootRejected(t *testing.T) {
	store, _ := testPKI(t)
	evil := NewRootCA(Name{CommonName: "Avast Web/Mail Shield Root"}, "avast-root",
		epoch.Add(-time.Hour), 10*365*24*time.Hour)
	leaf := evil.Issue(leafTemplate("www.example.org"))
	err := store.Verify("www.example.org", []*Certificate{leaf, evil.Cert}, epoch)
	if !errors.Is(err, ErrUntrustedRoot) {
		t.Fatalf("err = %v, want ErrUntrustedRoot", err)
	}
}

func TestExpiredRejected(t *testing.T) {
	store, root := testPKI(t)
	tmpl := leafTemplate("old.example.org")
	tmpl.NotAfter = epoch.Add(-time.Minute)
	leaf := root.Issue(tmpl)
	err := store.Verify("old.example.org", []*Certificate{leaf, root.Cert}, epoch)
	if !errors.Is(err, ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", err)
	}
}

func TestNotYetValidRejected(t *testing.T) {
	store, root := testPKI(t)
	tmpl := leafTemplate("future.example.org")
	tmpl.NotBefore = epoch.Add(time.Hour)
	leaf := root.Issue(tmpl)
	if err := store.Verify("future.example.org", []*Certificate{leaf, root.Cert}, epoch); !errors.Is(err, ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", err)
	}
}

func TestWrongCommonNameRejected(t *testing.T) {
	store, root := testPKI(t)
	leaf := root.Issue(leafTemplate("other.example.org"))
	err := store.Verify("www.example.org", []*Certificate{leaf, root.Cert}, epoch)
	if !errors.Is(err, ErrNameMismatch) {
		t.Fatalf("err = %v, want ErrNameMismatch", err)
	}
}

func TestWildcardMatch(t *testing.T) {
	store, root := testPKI(t)
	tmpl := leafTemplate("*.example.org")
	tmpl.KeySeed = "wild"
	leaf := root.Issue(tmpl)
	if err := store.Verify("www.example.org", []*Certificate{leaf, root.Cert}, epoch); err != nil {
		t.Fatalf("wildcard rejected: %v", err)
	}
	// Wildcards cover exactly one label.
	if err := store.Verify("a.b.example.org", []*Certificate{leaf, root.Cert}, epoch); !errors.Is(err, ErrNameMismatch) {
		t.Fatalf("multi-label wildcard accepted: %v", err)
	}
}

// TestMatchesHostnameAgreesWithToLower holds MatchesHostname to the
// lower-case-both-sides function it replaced (oracle_test.go): on the
// upper-case labels the world's popular sites carry, trailing dots and
// wildcards, and on the non-ASCII names where strings.ToLower and case
// folding part ways (ſ, ς, the Kelvin sign, dotted İ, invalid UTF-8) — as a
// common name and as a SAN. A random sweep over the same alphabet follows,
// and the verdict on a popular host allocates nothing.
func TestMatchesHostnameAgreesWithToLower(t *testing.T) {
	names := []string{
		"www.popular03.DE.example", "www.popular03.de.example", "WWW.POPULAR03.DE.EXAMPLE.",
		"*.DE.example", "*.de.example", "*.", "*", "*..", ".", "", "a.b.example.org", "*.b.example.org",
		"\u212Aelvin.example", "kelvin.example", "ſtraße.example", "straße.example", "STRASSE.example",
		"ς.example", "Σ.example", "σ.example", "İstanbul.example", "istanbul.example", "ıstanbul.example",
		"\xff.example", "\ufffd.example", "\xc3.example", "ÄÖÜ.example", "äöü.example", "*.ÄÖÜ.example",
	}
	matches := 0
	check := func(c *Certificate, host string) {
		t.Helper()
		got, want := c.MatchesHostname(host), oracleMatchesHostname(c, host)
		if got != want {
			t.Fatalf("MatchesHostname(%q) = %v for CN %q, SANs %q; ToLower says %v", host, got, c.Subject.CommonName, c.DNSNames, want)
		}
		if got {
			matches++
		}
	}
	for _, n := range names {
		for _, host := range names {
			check(&Certificate{Subject: Name{CommonName: n}}, host)
			check(&Certificate{Subject: Name{CommonName: "unrelated.example"}, DNSNames: []string{"other.example", n}}, host)
		}
	}
	if matches < len(names) {
		t.Fatalf("only %d matching pairs: the table does not exercise a match", matches)
	}

	alphabet := []string{"a", "A", "k", "K", "\u212A", "s", "S", "ſ", "ß", "σ", "ς", "Σ", "i", "I", "İ", "ı", "é", "É", ".", "*", "\xff", "\ufffd"}
	rng := rand.New(rand.NewSource(25))
	word := func() string {
		var b strings.Builder
		for n := rng.Intn(6); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	for i := 0; i < 20000; i++ {
		a, b := word(), word()
		if got, want := lowerEqual(a, b), strings.ToLower(a) == strings.ToLower(b); got != want {
			t.Fatalf("lowerEqual(%q, %q) = %v; ToLower equality says %v", a, b, got, want)
		}
		check(&Certificate{Subject: Name{CommonName: a}}, b)
	}

	c := &Certificate{Subject: Name{CommonName: "www.popular03.DE.example"}, DNSNames: []string{"popular03.DE.example", "*.popular03.DE.example"}}
	if n := testing.AllocsPerRun(100, func() {
		if !c.MatchesHostname("WWW.popular03.de.example.") {
			t.Fatal("popular host not matched")
		}
	}); n != 0 {
		t.Errorf("MatchesHostname allocated %v times, want 0", n)
	}
}

func TestSANMatch(t *testing.T) {
	store, root := testPKI(t)
	tmpl := leafTemplate("example.org")
	tmpl.DNSNames = []string{"www.example.org", "cdn.example.org"}
	leaf := root.Issue(tmpl)
	if err := store.Verify("cdn.example.org", []*Certificate{leaf, root.Cert}, epoch); err != nil {
		t.Fatalf("SAN rejected: %v", err)
	}
}

func TestTamperedCertificateRejected(t *testing.T) {
	store, root := testPKI(t)
	leaf := root.Issue(leafTemplate("www.example.org"))
	tampered := leaf.Clone()
	tampered.Subject.CommonName = "www.example.org" // unchanged
	tampered.NotAfter = tampered.NotAfter.Add(time.Hour)
	err := store.Verify("www.example.org", []*Certificate{tampered, root.Cert}, epoch)
	if !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestNonCAIntermediateRejected(t *testing.T) {
	store, root := testPKI(t)
	fakeInter := root.Issue(leafTemplate("not-a-ca.example.org")) // IsCA=false
	leaf := root.Issue(leafTemplate("www.example.org"))
	// Build an (invalidly structured) chain placing a non-CA in the middle.
	leaf.Issuer = fakeInter.Subject
	err := store.Verify("www.example.org", []*Certificate{leaf, fakeInter, root.Cert}, epoch)
	if err == nil {
		t.Fatal("chain through non-CA accepted")
	}
}

func TestEmptyChainRejected(t *testing.T) {
	store, _ := testPKI(t)
	if err := store.Verify("x", nil, epoch); !errors.Is(err, ErrEmptyChain) {
		t.Fatalf("err = %v, want ErrEmptyChain", err)
	}
}

func TestSelfSignedLeafRejected(t *testing.T) {
	store, _ := testPKI(t)
	self := NewRootCA(Name{CommonName: "www.example.org"}, "self", epoch.Add(-time.Hour), time.Hour*48)
	err := store.Verify("www.example.org", []*Certificate{self.Cert}, epoch)
	if !errors.Is(err, ErrUntrustedRoot) {
		t.Fatalf("err = %v, want ErrUntrustedRoot", err)
	}
}

func TestKeyReuseObservable(t *testing.T) {
	// AV products (all but Avast, §6.2) mint every spoofed leaf with the
	// same key pair; the fingerprint must expose that.
	_, root := testPKI(t)
	t1 := leafTemplate("a.example.org")
	t1.KeySeed = "av-shared-key"
	t2 := leafTemplate("b.example.org")
	t2.KeySeed = "av-shared-key"
	l1, l2 := root.Issue(t1), root.Issue(t2)
	if l1.PublicKey != l2.PublicKey {
		t.Fatal("same seed produced different keys")
	}
	t3 := leafTemplate("c.example.org")
	t3.KeySeed = "fresh"
	if l3 := root.Issue(t3); l3.PublicKey == l1.PublicKey {
		t.Fatal("different seeds collided")
	}
}

// TestKeyIDTextRoundTrip: a key id travels as its String form, and only
// 32 hex digits read back as one.
func TestKeyIDTextRoundTrip(t *testing.T) {
	for _, k := range []KeyID{NewKeyPair("roundtrip").Public, {}} {
		text, err := k.MarshalText()
		if err != nil || string(text) != k.String() {
			t.Fatalf("MarshalText(%v) = %q, %v; want %q", k, text, err, k.String())
		}
		var got KeyID
		if err := got.UnmarshalText(text); err != nil || got != k {
			t.Fatalf("UnmarshalText(%q) = %v, %v", text, got, err)
		}
	}
	upper := strings.ToUpper(NewKeyPair("roundtrip").Public.String())
	var got KeyID
	if err := got.UnmarshalText([]byte(upper)); err != nil || got != NewKeyPair("roundtrip").Public {
		t.Fatalf("upper-case hex: %v, %v", got, err)
	}
	for _, bad := range []string{"", "00", strings.Repeat("0", 31), strings.Repeat("0", 33),
		strings.Repeat("0", 64), strings.Repeat("0", 30) + "0g", strings.Repeat("x", 32)} {
		k := NewKeyPair("kept").Public
		if err := k.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("UnmarshalText(%q) accepted", bad)
		} else if k != NewKeyPair("kept").Public {
			t.Errorf("UnmarshalText(%q) failed but changed the key to %v", bad, k)
		}
	}
}

func TestFingerprintDistinguishesCertificates(t *testing.T) {
	_, root := testPKI(t)
	a := root.Issue(leafTemplate("www.example.org"))
	b := root.Issue(leafTemplate("www.example.org"))
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("distinct serials share a fingerprint")
	}
	if a.Fingerprint() != a.Clone().Fingerprint() {
		t.Fatal("clone changed fingerprint")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	_, root := testPKI(t)
	tmpl := leafTemplate("www.example.org")
	tmpl.DNSNames = []string{"example.org", "*.example.org"}
	leaf := root.Issue(tmpl)
	got, err := Unmarshal(leaf.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != leaf.Fingerprint() {
		t.Fatal("round trip changed fingerprint")
	}
	if got.Subject != leaf.Subject || got.Issuer != leaf.Issuer || !got.NotAfter.Equal(leaf.NotAfter) {
		t.Fatalf("round trip changed fields: %+v", got)
	}
}

func TestChainRoundTrip(t *testing.T) {
	store, root := testPKI(t)
	inter := root.IssueIntermediate(Name{CommonName: "I"}, "i", epoch.Add(-time.Hour), time.Hour*1000)
	leaf := inter.Issue(leafTemplate("www.example.org"))
	chain := []*Certificate{leaf, inter.Cert, root.Cert}
	got, err := UnmarshalChain(MarshalChain(chain))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("chain length = %d", len(got))
	}
	if err := store.Verify("www.example.org", got, epoch); err != nil {
		t.Fatalf("decoded chain fails verification: %v", err)
	}
}

func TestUnmarshalGarbageNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		buf := make([]byte, rng.Intn(200))
		rng.Read(buf)
		Unmarshal(buf)
		UnmarshalChain(buf)
	}
}

func TestUnmarshalTruncations(t *testing.T) {
	_, root := testPKI(t)
	enc := root.Issue(leafTemplate("www.example.org")).Marshal()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := Unmarshal(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestOSRootStore(t *testing.T) {
	store, cas := NewOSRootStore(epoch)
	if store.Len() != NumOSRoots {
		t.Fatalf("store has %d roots, want %d", store.Len(), NumOSRoots)
	}
	if len(cas) < 3 {
		t.Fatalf("only %d operational CAs", len(cas))
	}
	leaf := cas[0].Issue(leafTemplate("site.example.com"))
	if err := store.Verify("site.example.com", []*Certificate{leaf, cas[0].Cert}, epoch); err != nil {
		t.Fatalf("operational CA chain rejected: %v", err)
	}
}

func TestNameString(t *testing.T) {
	n := Name{CommonName: "x", Organization: "O", Country: "US"}
	if got := n.String(); got != "CN=x, O=O, C=US" {
		t.Fatalf("Name.String = %q", got)
	}
	if got := (Name{CommonName: "y"}).String(); got != "CN=y" {
		t.Fatalf("Name.String = %q", got)
	}
}

// Property: marshal/unmarshal is the identity on issued certificates with
// fuzzed CNs and validity windows.
func TestPropertyMarshalRoundTrip(t *testing.T) {
	_, root := testPKI(t)
	f := func(cnSeed uint32, days uint16, isCA bool) bool {
		tmpl := Template{
			Subject:   Name{CommonName: randCN(cnSeed), Organization: "O", Country: "ZZ"},
			NotBefore: epoch,
			NotAfter:  epoch.Add(time.Duration(days) * 24 * time.Hour),
			IsCA:      isCA,
			KeySeed:   randCN(cnSeed ^ 0xFFFF),
		}
		c := root.Issue(tmpl)
		got, err := Unmarshal(c.Marshal())
		return err == nil && got.Fingerprint() == c.Fingerprint() && got.IsCA == isCA
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randCN(seed uint32) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	b := make([]byte, 3+seed%10)
	s := seed
	for i := range b {
		s = s*1664525 + 1013904223
		b[i] = letters[s%26]
	}
	return string(b) + ".example.net"
}
