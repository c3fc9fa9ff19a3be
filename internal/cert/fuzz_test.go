package cert

import "testing"

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
