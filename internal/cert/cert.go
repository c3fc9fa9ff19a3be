// Package cert implements the certificate model used by the HTTPS
// experiment (§6): X.509-shaped certificates with subject/issuer names,
// validity windows, per-certificate public keys, and issuer signatures over
// the to-be-signed bytes, plus a root store and chain verification.
//
// The signature scheme is deliberately a structural stand-in, not real
// public-key cryptography: Sign computes SHA-256 over the issuer's public
// key and the TBS bytes. This preserves everything the paper's methodology
// observes — chain linkage, trust-anchor membership, issuer common names,
// public-key reuse across spoofed leaves, expiry and common-name validity —
// while keeping million-certificate simulations cheap. No simulated actor
// attempts cryptographic forgery, so the weakened scheme is never load-
// bearing; the measurement client detects MITM exactly as the paper does,
// by validating chains against a clean OS root store that does not contain
// the interceptor's root.
package cert

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"
	"unicode"
	"unicode/utf8"
)

// KeyID is a public-key fingerprint. The paper's §6.2 finding that most AV
// products reuse one key pair for every spoofed certificate on a host makes
// key identity a first-class observable.
type KeyID [16]byte

// String renders the fingerprint in hex.
func (k KeyID) String() string { return fmt.Sprintf("%x", k[:]) }

// MarshalText encodes the fingerprint in its String form.
func (k KeyID) MarshalText() ([]byte, error) { return hex.AppendEncode(nil, k[:]), nil }

// UnmarshalText decodes the String form: exactly 32 hex digits.
func (k *KeyID) UnmarshalText(text []byte) error {
	if len(text) != 2*len(k) {
		return fmt.Errorf("cert: key id %q: want %d hex digits", text, 2*len(k))
	}
	var id KeyID
	if _, err := hex.Decode(id[:], text); err != nil {
		return fmt.Errorf("cert: key id %q: %w", text, err)
	}
	*k = id
	return nil
}

// KeyPair is a simulated asymmetric key pair.
type KeyPair struct {
	Public KeyID
}

// NewKeyPair derives a key pair from a seed. Distinct seeds give distinct
// keys; the same seed reproduces the same key, which the deterministic world
// generator relies on.
func NewKeyPair(seed string) KeyPair {
	sum := sha256.Sum256([]byte("tft-key:" + seed))
	var id KeyID
	copy(id[:], sum[:])
	return KeyPair{Public: id}
}

// Name is a distinguished name, reduced to the fields the paper inspects.
type Name struct {
	CommonName   string
	Organization string
	Country      string
}

// String renders the name in a compact openssl-like form.
func (n Name) String() string {
	parts := []string{"CN=" + n.CommonName}
	if n.Organization != "" {
		parts = append(parts, "O="+n.Organization)
	}
	if n.Country != "" {
		parts = append(parts, "C="+n.Country)
	}
	return strings.Join(parts, ", ")
}

// Certificate is one certificate.
type Certificate struct {
	SerialNumber uint64
	Subject      Name
	Issuer       Name
	NotBefore    time.Time
	NotAfter     time.Time
	IsCA         bool
	PublicKey    KeyID
	// DNSNames lists additional subject alternative names; CommonName is
	// always implicitly included.
	DNSNames  []string
	Signature [32]byte
}

// tbsStack sizes the stack buffer signature checks assemble their input in:
// the prefix, the issuer key and the signed fields of any certificate the
// world issues fit, so hashing one allocates nothing; a longer certificate
// spills to the heap and is still hashed whole.
const tbsStack = 512

// appendTBS appends every signed field to dst.
func (c *Certificate) appendTBS(dst []byte) []byte {
	b := binary.BigEndian.AppendUint64(dst, c.SerialNumber)
	for _, s := range [...]string{
		c.Subject.CommonName, c.Subject.Organization, c.Subject.Country,
		c.Issuer.CommonName, c.Issuer.Organization, c.Issuer.Country,
	} {
		b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	b = binary.BigEndian.AppendUint64(b, uint64(c.NotBefore.Unix()))
	b = binary.BigEndian.AppendUint64(b, uint64(c.NotAfter.Unix()))
	if c.IsCA {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = append(b, c.PublicKey[:]...)
	for _, dn := range c.DNSNames {
		b = binary.BigEndian.AppendUint32(b, uint32(len(dn)))
		b = append(b, dn...)
	}
	return b
}

// sign computes the simulated signature of c's signed fields under the
// issuer key.
func sign(issuerKey KeyID, c *Certificate) [32]byte {
	var stack [tbsStack]byte
	b := append(stack[:0], "tft-sig:"...)
	b = append(b, issuerKey[:]...)
	return sha256.Sum256(c.appendTBS(b))
}

// CheckSignatureFrom verifies that parent's key signed c.
func (c *Certificate) CheckSignatureFrom(parent *Certificate) error {
	if c.Signature != sign(parent.PublicKey, c) {
		return ErrBadSignature
	}
	return nil
}

// Fingerprint returns a stable identity for the exact certificate contents,
// used by the invalid-site exact-match check (§6.1: "we check whether the
// invalid certificate matches exactly").
func (c *Certificate) Fingerprint() [32]byte {
	var stack [tbsStack]byte
	b := c.appendTBS(stack[:0])
	return sha256.Sum256(append(b, c.Signature[:]...))
}

// Clone returns a deep copy.
func (c *Certificate) Clone() *Certificate {
	dup := *c
	dup.DNSNames = append([]string(nil), c.DNSNames...)
	return &dup
}

// MatchesHostname reports whether the certificate covers host, honouring
// single-label wildcards (*.example.org). Names compare as strings.ToLower
// would have them compare — ASCII case folded in place, anything else rune
// by rune through unicode.ToLower — without lower-casing either side.
//
//tftlint:hotpath
func (c *Certificate) MatchesHostname(host string) bool {
	host = strings.TrimSuffix(host, ".")
	if nameCovers(c.Subject.CommonName, host) {
		return true
	}
	for _, n := range c.DNSNames {
		if nameCovers(n, host) {
			return true
		}
	}
	return false
}

// nameCovers reports whether one certificate name covers host (its trailing
// dot already trimmed).
//
//tftlint:hotpath
func nameCovers(n, host string) bool {
	n = strings.TrimSuffix(n, ".")
	if lowerEqual(n, host) {
		return true
	}
	// Lower-casing maps no rune to '*' or '.', nor either of them to
	// anything else, so the wildcard and the first label are found on the
	// names as given.
	if rest, ok := strings.CutPrefix(n, "*."); ok {
		if i := strings.IndexByte(host, '.'); i > 0 && lowerEqual(host[i+1:], rest) {
			return true
		}
	}
	return false
}

// lowerEqual reports whether strings.ToLower(a) == strings.ToLower(b). Both
// sides lower rune for rune (an invalid byte as U+FFFD), and UTF-8 encodes
// distinct runes distinctly, so comparing the lowered runes in step is the
// same test. This is not strings.EqualFold, which folds more: 'ſ' and 's'
// fold together but lower apart.
//
//tftlint:hotpath
func lowerEqual(a, b string) bool {
	for len(a) > 0 && len(b) > 0 {
		if ca, cb := a[0], b[0]; ca < utf8.RuneSelf && cb < utf8.RuneSelf {
			if lowerASCII(ca) != lowerASCII(cb) {
				return false
			}
			a, b = a[1:], b[1:]
			continue
		}
		ra, na := utf8.DecodeRuneInString(a)
		rb, nb := utf8.DecodeRuneInString(b)
		if unicode.ToLower(ra) != unicode.ToLower(rb) {
			return false
		}
		a, b = a[na:], b[nb:]
	}
	return len(a) == len(b)
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// CA couples a certificate with signing ability. Issue is safe for
// concurrent use: one product root signs spoofed leaves on many simulated
// hosts at once.
type CA struct {
	Cert *Certificate
	key  KeyPair

	// serial is the last serial number issued. Atomic, not locked: a
	// TLS interceptor issues inside the event core, where nothing blocks.
	serial atomic.Uint64
}

// NewRootCA creates a self-signed root.
func NewRootCA(name Name, keySeed string, notBefore time.Time, lifetime time.Duration) *CA {
	kp := NewKeyPair(keySeed)
	c := &Certificate{
		SerialNumber: 1,
		Subject:      name,
		Issuer:       name,
		NotBefore:    notBefore,
		NotAfter:     notBefore.Add(lifetime),
		IsCA:         true,
		PublicKey:    kp.Public,
	}
	c.Signature = sign(kp.Public, c)
	ca := &CA{Cert: c, key: kp}
	ca.serial.Store(1)
	return ca
}

// Template carries the caller-controlled fields of a new certificate.
type Template struct {
	Subject   Name
	DNSNames  []string
	NotBefore time.Time
	NotAfter  time.Time
	IsCA      bool
	// KeySeed fixes the subject key; AV products that reuse one key across
	// every spoofed certificate pass the same seed each time.
	KeySeed string
}

// Issue signs a new certificate from the template.
func (ca *CA) Issue(tmpl Template) *Certificate {
	serial := ca.serial.Add(1)
	kp := NewKeyPair(tmpl.KeySeed)
	c := &Certificate{
		SerialNumber: serial,
		Subject:      tmpl.Subject,
		Issuer:       ca.Cert.Subject,
		NotBefore:    tmpl.NotBefore,
		NotAfter:     tmpl.NotAfter,
		IsCA:         tmpl.IsCA,
		PublicKey:    kp.Public,
		DNSNames:     append([]string(nil), tmpl.DNSNames...),
	}
	c.Signature = sign(ca.key.Public, c)
	return c
}

// IssueIntermediate creates a subordinate CA.
func (ca *CA) IssueIntermediate(name Name, keySeed string, notBefore time.Time, lifetime time.Duration) *CA {
	c := ca.Issue(Template{
		Subject: name, NotBefore: notBefore, NotAfter: notBefore.Add(lifetime),
		IsCA: true, KeySeed: keySeed,
	})
	sub := &CA{Cert: c, key: NewKeyPair(keySeed)}
	sub.serial.Store(1000)
	return sub
}

// Verification errors.
var (
	ErrBadSignature  = errors.New("cert: signature verification failed")
	ErrExpired       = errors.New("cert: certificate expired or not yet valid")
	ErrNameMismatch  = errors.New("cert: certificate name does not match host")
	ErrUntrustedRoot = errors.New("cert: chain does not terminate at a trusted root")
	ErrEmptyChain    = errors.New("cert: empty certificate chain")
	ErrNotCA         = errors.New("cert: intermediate is not a CA certificate")
)

// Store is a set of trusted root certificates, the analogue of the OS X
// 10.11 root store (187 roots) the paper validated against.
type Store struct {
	roots map[KeyID]*Certificate
	// bySubject finds a chain's anchor from its last certificate's issuer
	// name, so Verify checks one signature instead of one per root.
	bySubject map[Name][]*Certificate
}

// NewStore builds a store from roots.
func NewStore(roots ...*Certificate) *Store {
	s := &Store{
		roots:     make(map[KeyID]*Certificate, len(roots)),
		bySubject: make(map[Name][]*Certificate, len(roots)),
	}
	for _, r := range roots {
		s.Add(r)
	}
	return s
}

// Add inserts a root; a root whose key is already trusted replaces the
// earlier entry. Installing an AV product's root into a victim's store
// is exactly the paper's §6.2 scenario; the measurement client never does
// this, which is why replaced chains fail its validation.
func (s *Store) Add(root *Certificate) {
	if old, ok := s.roots[root.PublicKey]; ok {
		s.bySubject[old.Subject] = slices.DeleteFunc(s.bySubject[old.Subject],
			func(c *Certificate) bool { return c == old })
	}
	s.roots[root.PublicKey] = root
	s.bySubject[root.Subject] = append(s.bySubject[root.Subject], root)
}

// Len returns the number of trusted roots.
func (s *Store) Len() int { return len(s.roots) }

// Verify checks a presented chain (leaf first) against the store: hostname
// match on the leaf, validity window and signature on every link, CA bit on
// intermediates, and a trusted terminal root. It mirrors `openssl verify`
// as the paper used it (§6.1).
//
// The trust anchor is found the way RFC 5280 §6.1 and crypto/x509's pool
// do: by name. The last certificate must name a trusted root as its issuer
// and carry a signature that verifies under that root's key — which covers
// both a chain that ends at the root itself (a root is its own issuer) and
// one that ends just below it.
func (s *Store) Verify(host string, chain []*Certificate, at time.Time) error {
	if len(chain) == 0 {
		return ErrEmptyChain
	}
	leaf := chain[0]
	if host != "" && !leaf.MatchesHostname(host) {
		return &mismatchError{host: host, cn: leaf.Subject.CommonName}
	}
	for i, c := range chain {
		if at.Before(c.NotBefore) || at.After(c.NotAfter) {
			return &depthError{err: ErrExpired, cn: c.Subject.CommonName, depth: i}
		}
		if i > 0 && !c.IsCA {
			return &depthError{err: ErrNotCA, cn: c.Subject.CommonName, depth: i}
		}
	}
	for i := 0; i < len(chain)-1; i++ {
		if err := chain[i].CheckSignatureFrom(chain[i+1]); err != nil {
			return fmt.Errorf("%w: depth %d", err, i)
		}
	}
	last := chain[len(chain)-1]
	for _, root := range s.bySubject[last.Issuer] {
		if last.CheckSignatureFrom(root) == nil {
			return nil
		}
	}
	return &untrustedError{issuer: last.Issuer.CommonName}
}

// Verify's verdicts against a chain are formatted only when read: the §6
// crawl gets one for the invalid sites and every intercepted chain, and
// only compares it to nil. Each renders the text fmt.Errorf("%w: …") gave
// it and unwraps to its sentinel.

// untrustedError is ErrUntrustedRoot naming the issuer no root vouches for.
type untrustedError struct{ issuer string }

func (e *untrustedError) Error() string {
	return fmt.Sprintf("%v: issuer %q", ErrUntrustedRoot, e.issuer)
}

func (e *untrustedError) Unwrap() error { return ErrUntrustedRoot }

// mismatchError is ErrNameMismatch naming the host and the leaf's common
// name.
type mismatchError struct{ host, cn string }

func (e *mismatchError) Error() string {
	return fmt.Sprintf("%v: %q not covered by %q", ErrNameMismatch, e.host, e.cn)
}

func (e *mismatchError) Unwrap() error { return ErrNameMismatch }

// depthError is ErrExpired or ErrNotCA naming the certificate and its depth
// in the chain.
type depthError struct {
	err   error
	cn    string
	depth int
}

func (e *depthError) Error() string {
	return fmt.Sprintf("%v: %q (depth %d)", e.err, e.cn, e.depth)
}

func (e *depthError) Unwrap() error { return e.err }
