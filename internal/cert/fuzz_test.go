package cert

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

// FuzzUnmarshal: the certificate decoder must never panic, and accepted
// inputs must be re-encodable to an identical fingerprint.
func FuzzUnmarshal(f *testing.F) {
	root := NewRootCA(Name{CommonName: "Fuzz Root"}, "fr", epoch, 1000*1000*1000*3600)
	f.Add(root.Cert.Marshal())
	leaf := root.Issue(Template{Subject: Name{CommonName: "leaf.example"},
		NotBefore: epoch, NotAfter: epoch.Add(1000), KeySeed: "l"})
	f.Add(leaf.Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Unmarshal(data)
		if err != nil {
			return
		}
		c2, err := Unmarshal(c.Marshal())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if c2.Fingerprint() != c.Fingerprint() {
			t.Fatal("fingerprint changed across round trip")
		}
	})
}

// FuzzUnmarshalChain covers the chain framing.
func FuzzUnmarshalChain(f *testing.F) {
	root := NewRootCA(Name{CommonName: "Fuzz Root"}, "fr2", epoch, 1000*1000*1000*3600)
	leaf := root.Issue(Template{Subject: Name{CommonName: "leaf.example"},
		NotBefore: epoch, NotAfter: epoch.Add(1000), KeySeed: "l2"})
	f.Add(MarshalChain([]*Certificate{leaf, root.Cert}))
	f.Fuzz(func(t *testing.T, data []byte) {
		chain, err := UnmarshalChain(data)
		if err != nil {
			return
		}
		enc := MarshalChain(chain)
		if ChainSize(chain) != len(enc) {
			t.Fatalf("ChainSize = %d, MarshalChain wrote %d bytes", ChainSize(chain), len(enc))
		}
		chain2, err := UnmarshalChain(enc)
		if err != nil || len(chain2) != len(chain) {
			t.Fatalf("unstable chain round trip: %v", err)
		}
	})
}

// FuzzChainAgreesWithOracle holds UnmarshalChain and Unmarshal to the byte
// decoder they replaced (oracle_test.go): each rejects exactly what the
// oracle rejects, with the same error (and so the same sentinel), returns
// what the oracle returns field for field, and a chain it accepts is
// ChainSize bytes — every byte the oracle read.
func FuzzChainAgreesWithOracle(f *testing.F) {
	root := NewRootCA(Name{CommonName: "Fuzz Root", Organization: "O", Country: "US"}, "fo", epoch, 1000*time.Hour)
	inter := root.IssueIntermediate(Name{CommonName: "Fuzz Issuing CA"}, "fo-inter", epoch, 1000*time.Hour)
	leaf := inter.Issue(Template{Subject: Name{CommonName: "www.Example.org", Organization: "Site"},
		DNSNames: []string{"example.org", "*.cdn.example.org", ""}, NotBefore: epoch, NotAfter: epoch.Add(time.Hour), KeySeed: "fo-leaf"})
	for _, chain := range [][]*Certificate{{}, {root.Cert}, {leaf, inter.Cert}, {leaf, inter.Cert, root.Cert}} {
		enc := MarshalChain(chain)
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
		f.Add(append(enc, 0))
	}
	f.Add(leaf.Marshal())
	f.Add(inter.Cert.Marshal()[:40])
	f.Fuzz(func(t *testing.T, data []byte) {
		chain, err := UnmarshalChain(data)
		want, wantErr := oracleUnmarshalChain(data)
		agreeWithOracle(t, "UnmarshalChain", chain, err, want, wantErr)
		if err == nil && ChainSize(chain) != len(data) {
			t.Fatalf("UnmarshalChain accepted %d bytes; ChainSize of what it returned is %d", len(data), ChainSize(chain))
		}
		c, err := Unmarshal(data)
		wantC, wantErr := oracleUnmarshal(data)
		agreeWithOracle(t, "Unmarshal", c, err, wantC, wantErr)
	})
}

func agreeWithOracle(t *testing.T, fn string, got any, err error, want any, wantErr error) {
	t.Helper()
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%s: err = %v, the oracle's = %v", fn, err, wantErr)
	case err != nil && (!errors.Is(err, ErrDecode) || err.Error() != wantErr.Error()):
		t.Fatalf("%s: err = %q, the oracle's = %q", fn, err, wantErr)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%s decoded\n%+v\nthe oracle\n%+v", fn, got, want)
	}
}
