package cert

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// oracleAnchor is Verify's terminal check as it stood before the store was
// indexed by subject: try last's signature under every trusted key, names
// unread. It returns the root whose key signed last, or nil. Kept as the
// reference the indexed lookup is compared against.
func oracleAnchor(s *Store, last *Certificate) *Certificate {
	for key, root := range s.roots {
		if last.Signature == sign(key, last) {
			return root
		}
	}
	return nil
}

// checkAgainstOracle verifies chain and holds the verdict against the
// oracle: the indexed Verify never accepts what the oracle rejects, and
// agrees with it whenever the signing root is also the one last names as its
// issuer. Chains that fail before the terminal check have no anchor verdict
// to compare.
func checkAgainstOracle(t *testing.T, s *Store, host string, chain []*Certificate) error {
	t.Helper()
	err := s.Verify(host, chain, epoch)
	if err != nil && !errors.Is(err, ErrUntrustedRoot) {
		return err
	}
	last := chain[len(chain)-1]
	anchor := oracleAnchor(s, last)
	switch {
	case err == nil && anchor == nil:
		t.Fatalf("Verify accepted a chain no trusted key signed (issuer %q)", last.Issuer.CommonName)
	case err != nil && anchor != nil && anchor.Subject == last.Issuer:
		t.Fatalf("Verify rejected a chain that names and is signed by trusted root %q: %v", anchor.Subject.CommonName, err)
	}
	return err
}

// TestVerifyAgreesWithTryEveryRoot runs every shape of chain the world
// produces — and one it does not — through the indexed Verify and the
// oracle.
func TestVerifyAgreesWithTryEveryRoot(t *testing.T) {
	const nRoots = 40
	lifetime := 10 * 365 * 24 * time.Hour
	cas := make([]*CA, nRoots)
	store := NewStore()
	for i := range cas {
		cas[i] = NewRootCA(Name{CommonName: fmt.Sprintf("Root %02d", i), Organization: "Oracle Test"},
			fmt.Sprintf("oracle-root-%d", i), epoch.Add(-time.Hour), lifetime)
		store.Add(cas[i].Cert)
	}
	evil := NewRootCA(Name{CommonName: "Interceptor Root"}, "oracle-evil", epoch.Add(-time.Hour), lifetime)
	evilInter := evil.IssueIntermediate(Name{CommonName: "Interceptor Issuing CA"}, "oracle-evil-inter", epoch.Add(-time.Hour), lifetime)
	const host = "www.example.org"

	for i, ca := range cas {
		inter := ca.IssueIntermediate(Name{CommonName: fmt.Sprintf("Issuing CA %02d", i)},
			fmt.Sprintf("oracle-inter-%d", i), epoch.Add(-time.Hour), lifetime)
		direct, viaInter := ca.Issue(leafTemplate(host)), inter.Issue(leafTemplate(host))
		for name, chain := range map[string][]*Certificate{
			"leaf only":                {direct},
			"leaf, root":               {direct, ca.Cert},
			"leaf, intermediate":       {viaInter, inter.Cert},
			"leaf, intermediate, root": {viaInter, inter.Cert, ca.Cert},
			"root alone":               {ca.Cert},
		} {
			h := host
			if name == "root alone" {
				h = ""
			}
			if err := checkAgainstOracle(t, store, h, chain); err != nil {
				t.Fatalf("root %d, %s: valid chain rejected: %v", i, name, err)
			}
		}
	}

	selfSigned := NewRootCA(Name{CommonName: host}, "oracle-self", epoch.Add(-time.Hour), lifetime)
	expired := leafTemplate(host)
	expired.NotAfter = epoch.Add(-time.Minute)
	// A trusted key signing under a name the store does not know it by: the
	// oracle, which never reads names, accepts; RFC 5280 name chaining does
	// not. CA.Issue cannot produce this, so the world never does.
	misnamed := &CA{Cert: &Certificate{Subject: Name{CommonName: "Somebody Else's Root"}}, key: cas[3].key}
	// Name and key from two different trusted roots.
	crossed := &CA{Cert: &Certificate{Subject: cas[5].Cert.Subject}, key: cas[6].key}
	for _, tc := range []struct {
		name  string
		chain []*Certificate
		want  error
	}{
		{"self-signed leaf", []*Certificate{selfSigned.Cert}, ErrUntrustedRoot},
		{"expired leaf", []*Certificate{cas[0].Issue(expired), cas[0].Cert}, ErrExpired},
		{"wrong name", []*Certificate{cas[1].Issue(leafTemplate("other.example.org"))}, ErrNameMismatch},
		{"untrusted root sent", []*Certificate{evil.Issue(leafTemplate(host)), evil.Cert}, ErrUntrustedRoot},
		{"untrusted intermediate, root withheld", []*Certificate{evilInter.Issue(leafTemplate(host)), evilInter.Cert}, ErrUntrustedRoot},
		{"trusted leaf under an untrusted root", []*Certificate{cas[2].Issue(leafTemplate(host)), evil.Cert}, ErrBadSignature},
		{"trusted key, unknown issuer name", []*Certificate{misnamed.Issue(leafTemplate(host))}, ErrUntrustedRoot},
		{"trusted key, another root's name", []*Certificate{crossed.Issue(leafTemplate(host))}, ErrUntrustedRoot},
	} {
		if err := checkAgainstOracle(t, store, host, tc.chain); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if oracleAnchor(store, misnamed.Issue(leafTemplate(host))) != cas[3].Cert {
		t.Fatal("the oracle should accept a trusted key whatever issuer name it signs under")
	}

	// Re-adding a root changes nothing; re-adding its key under a new name
	// moves the anchor to that name.
	store.Add(cas[7].Cert)
	if store.Len() != nRoots || len(store.bySubject[cas[7].Cert.Subject]) != 1 {
		t.Fatalf("re-adding a root: Len() = %d, %d entries under its subject", store.Len(), len(store.bySubject[cas[7].Cert.Subject]))
	}
	leaf7 := cas[7].Issue(leafTemplate(host))
	if err := checkAgainstOracle(t, store, host, []*Certificate{leaf7}); err != nil {
		t.Fatalf("chain rejected after its root was re-added: %v", err)
	}
	renamed := NewRootCA(Name{CommonName: "Root 07, renamed"}, "oracle-root-7", epoch.Add(-time.Hour), lifetime)
	store.Add(renamed.Cert)
	if store.Len() != nRoots || len(store.bySubject[cas[7].Cert.Subject]) != 0 {
		t.Fatal("a root re-added under a new name is still indexed under the old one")
	}
	if err := checkAgainstOracle(t, store, host, []*Certificate{leaf7}); !errors.Is(err, ErrUntrustedRoot) {
		t.Fatalf("leaf naming the replaced root: err = %v, want ErrUntrustedRoot", err)
	}
	if err := checkAgainstOracle(t, store, host, []*Certificate{renamed.Issue(leafTemplate(host))}); err != nil {
		t.Fatalf("leaf naming the renamed root rejected: %v", err)
	}
}

// verifyFixtures returns the OS root store with the two chains the §6 crawl
// verifies most: a site certificate under a public root, and the invalid
// site's self-signed one (which every intercepted chain resembles: its
// issuer is not in the store).
func verifyFixtures() (store *Store, valid, untrusted []*Certificate) {
	store, cas := NewOSRootStore(epoch)
	valid = []*Certificate{cas[0].Issue(leafTemplate("www.example.org")), cas[0].Cert}
	self := NewRootCA(Name{CommonName: "www.example.org"}, "fixture-self", epoch.Add(-time.Hour), 365*24*time.Hour)
	return store, valid, []*Certificate{self.Cert}
}

// TestVerifyAllocations: a signature check hashes one stack buffer, so a
// verdict allocates nothing but the error it returns.
func TestVerifyAllocations(t *testing.T) {
	store, valid, untrusted := verifyFixtures()
	if n := testing.AllocsPerRun(100, func() {
		if err := store.Verify("www.example.org", valid, epoch); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("verifying a valid two-certificate chain allocated %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := store.Verify("www.example.org", untrusted, epoch); !errors.Is(err, ErrUntrustedRoot) {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("rejecting an untrusted chain allocated %v times, want at most 2 (the error)", n)
	}
	if n := testing.AllocsPerRun(100, func() { valid[0].Fingerprint() }); n != 0 {
		t.Errorf("Fingerprint allocated %v times, want 0", n)
	}
}

func TestChainSizeMatchesMarshalChain(t *testing.T) {
	_, valid, untrusted := verifyFixtures()
	san := leafTemplate("example.org")
	san.DNSNames = []string{"www.example.org", "cdn.example.org", ""}
	_, root := testPKI(t)
	for _, chain := range [][]*Certificate{nil, {}, valid, untrusted, {root.Issue(san), root.Cert}} {
		if got, want := ChainSize(chain), len(MarshalChain(chain)); got != want {
			t.Errorf("ChainSize = %d, len(MarshalChain) = %d for a chain of %d", got, want, len(chain))
		}
	}
	if n := testing.AllocsPerRun(100, func() { ChainSize(valid) }); n != 0 {
		t.Errorf("ChainSize allocated %v times, want 0", n)
	}
}

var verifyErr error

func BenchmarkVerifyValid(b *testing.B) {
	store, valid, _ := verifyFixtures()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verifyErr = store.Verify("www.example.org", valid, epoch)
	}
	if verifyErr != nil {
		b.Fatal(verifyErr)
	}
}

func BenchmarkVerifyUntrusted(b *testing.B) {
	store, _, untrusted := verifyFixtures()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verifyErr = store.Verify("www.example.org", untrusted, epoch)
	}
	if !errors.Is(verifyErr, ErrUntrustedRoot) {
		b.Fatal(verifyErr)
	}
}

// TestVerifyVerdictsReadAsBefore: the verdicts Verify no longer formats read
// exactly as the fmt.Errorf values they replaced, still unwrap to their
// sentinels, and cost one allocation — the verdict itself.
func TestVerifyVerdictsReadAsBefore(t *testing.T) {
	store, root := testPKI(t)
	expired := leafTemplate("old.example.org")
	expired.NotAfter = epoch.Add(-time.Minute)
	notCA := root.Issue(leafTemplate("not-a-ca.example.org"))
	for _, tc := range []struct {
		host     string
		chain    []*Certificate
		sentinel error
		text     string
	}{
		{"www.example.org", []*Certificate{root.Issue(leafTemplate("other.example.org"))}, ErrNameMismatch,
			fmt.Errorf("%w: %q not covered by %q", ErrNameMismatch, "www.example.org", "other.example.org").Error()},
		{"old.example.org", []*Certificate{root.Issue(expired), root.Cert}, ErrExpired,
			fmt.Errorf("%w: %q (depth %d)", ErrExpired, "old.example.org", 0).Error()},
		{"www.example.org", []*Certificate{root.Issue(leafTemplate("www.example.org")), notCA, root.Cert}, ErrNotCA,
			fmt.Errorf("%w: %q (depth %d)", ErrNotCA, "not-a-ca.example.org", 1).Error()},
	} {
		err := store.Verify(tc.host, tc.chain, epoch)
		if !errors.Is(err, tc.sentinel) || err.Error() != tc.text {
			t.Errorf("Verify = %q (is %v: %v); want %q", err, tc.sentinel, errors.Is(err, tc.sentinel), tc.text)
		}
		if n := testing.AllocsPerRun(100, func() { store.Verify(tc.host, tc.chain, epoch) }); n > 1 {
			t.Errorf("the %v verdict allocated %v times, want at most 1", tc.sentinel, n)
		}
	}
}

// TestUnmarshalChainAllocations: a two-certificate chain decodes into its
// string, its certificate array and the chain — three allocations, not one
// per name and one per certificate.
func TestUnmarshalChainAllocations(t *testing.T) {
	_, valid, _ := verifyFixtures()
	wire := MarshalChain(valid)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := UnmarshalChain(wire); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("UnmarshalChain of a two-certificate chain allocated %v times, want at most 3", n)
	}
}
