package population

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
)

// worldDigest hashes what a builder decided about its population: every
// row's address, AS and country in creation order, then how many
// organizations and ASes the registry ended up holding. Any change to the
// order or number of rng draws, AS roll-overs or address allocations moves
// it.
func worldDigest(w *World) string {
	h := sha256.New()
	var n [4]byte
	for i := 0; i < w.Spec.Len(); i++ {
		a := w.Spec.addrs[i].As4()
		h.Write(a[:])
		binary.BigEndian.PutUint32(n[:], uint32(w.Spec.asns[i]))
		h.Write(n[:])
		h.Write([]byte(w.Spec.countries[i]))
	}
	fmt.Fprintf(h, "orgs=%d ases=%d", w.Geo.NumOrgs(), w.Geo.NumASes())
	return hex.EncodeToString(h.Sum(nil))
}

// TestWorldDigestStable pins the five builders' output at two scales. The
// golden values were captured at the commit before the builders came to
// share one asPools and one fillHarmonic, so a pass here is that refactor's
// proof: same draws in the same order, bit-identical worlds. The DNS values
// were captured again when fillCountries came to top up every country the
// public resolvers and misc path hijacks reach.
func TestWorldDigestStable(t *testing.T) {
	builders := []struct {
		name  string
		build func(seed uint64, scale float64) (*World, error)
	}{
		{"dns", BuildDNSWorld},
		{"http", BuildHTTPWorld},
		{"tls", BuildTLSWorld},
		{"monitor", BuildMonitorWorld},
		{"smtp", BuildSMTPWorld},
	}
	golden := map[string]string{
		"dns@0.01":     "95fd0e92d31fbbab0e9818e4475e6f4174d381739f685318fa285e69921e2ae8",
		"dns@0.05":     "3e09517adf0d49537a69a893921469fd0d22284698b724bb66d45f3a2e539214",
		"http@0.01":    "8b52da6707cd30bc66639a54763e062892c2146453313fac98cb2090b0e6b070",
		"http@0.05":    "2f5e6d940d240eb15ecf77dd9d4334af33be2a0897d05efc0eff55436f950495",
		"tls@0.01":     "26ad4d34b29a3daa2b4fee131e7a0a30305c37c55226d5ad2b50ec447efce169",
		"tls@0.05":     "1ee9e3e9c54fa1fc0d6b1d3a71b2d7ca9a2c114f29bc933657b2200e29629690",
		"monitor@0.01": "f54c0fb2df402aab8ff8c406f4d1fdd7bf20bc62e171537937f036e8b4886432",
		"monitor@0.05": "a3a4d408941d2d2f9df10f0294deb2c2102854102e28b0aff5b025745da0cbd0",
		"smtp@0.01":    "2c68b5ebf1d2d143fde00b4e6acbf04e9bf4e86cc5a1ceaa3ade08f5d8dd920e",
		"smtp@0.05":    "9bf68f32e3ec7ab212540b51c1b45f0bc41219df7ea981cc0b18d0e534683940",
	}
	for _, b := range builders {
		for _, scale := range []float64{0.01, 0.05} {
			key := fmt.Sprintf("%s@%v", b.name, scale)
			w, err := b.build(testSeed, scale)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got := worldDigest(w); got != golden[key] {
				t.Errorf("%s: %d nodes, digest %s, want %s", key, w.Spec.Len(), got, golden[key])
			}
		}
	}
}
