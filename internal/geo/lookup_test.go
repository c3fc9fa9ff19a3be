package geo

import (
	"math/rand"
	"net/netip"
	"sort"
	"testing"
)

// ScanLookup is LookupAS as it was before the flattened table: sort the
// prefixes by base, find the last based at or below the address, and walk
// back over every prefix based within 2^24 addresses of it, keeping the
// longest that contains it. It stays as the oracle the table is held to.
// Stopping at 2^24 misses a covering prefix shorter than /8.
func ScanLookup(r *Registry, ip netip.Addr) (ASN, bool) {
	r.mu.Lock()
	prefixes := append([]prefixEntry(nil), r.prefixes...)
	r.mu.Unlock()
	sort.SliceStable(prefixes, func(i, j int) bool {
		pi, pj := prefixes[i], prefixes[j]
		ai, aj := addrToU32(pi.prefix.Addr()), addrToU32(pj.prefix.Addr())
		if ai != aj {
			return ai < aj
		}
		return pi.prefix.Bits() < pj.prefix.Bits()
	})
	if !ip.Is4() {
		return 0, false
	}
	want := addrToU32(ip)
	i := sort.Search(len(prefixes), func(i int) bool {
		return addrToU32(prefixes[i].prefix.Addr()) > want
	})
	bestBits := -1
	var best ASN
	for j := i - 1; j >= 0; j-- {
		e := prefixes[j]
		if e.prefix.Contains(ip) {
			if e.prefix.Bits() > bestBits {
				bestBits = e.prefix.Bits()
				best = e.asn
			}
			continue
		}
		if want-addrToU32(e.prefix.Addr()) > 1<<24 {
			break
		}
	}
	if bestBits < 0 {
		return 0, false
	}
	return best, true
}

// longestMatch checks every prefix: the slowest lookup, and one with no
// reach to stop at.
func longestMatch(r *Registry, ip netip.Addr) (ASN, bool) {
	bestBits := -1
	var best ASN
	for _, e := range r.prefixes {
		if e.prefix.Contains(ip) && e.prefix.Bits() >= bestBits {
			bestBits, best = e.prefix.Bits(), e.asn
		}
	}
	return best, bestBits >= 0
}

// ProbeAddrs returns the addresses a lookup is checked at: each prefix's
// first and last address and their neighbours outside it, a midpoint, and
// n random addresses, half of them near an announced prefix.
func ProbeAddrs(r *Registry, rng *rand.Rand, n int) []netip.Addr {
	var out []netip.Addr
	add := func(v uint64) {
		if v < 1<<32 {
			out = append(out, u32ToAddr(uint32(v)))
		}
	}
	for _, e := range r.prefixes {
		base, size := uint64(addrToU32(e.prefix.Addr())), uint64(1)<<(32-e.prefix.Bits())
		add(base - 1)
		add(base)
		add(base + size/2)
		add(base + size - 1)
		add(base + size)
	}
	for i := 0; i < n; i++ {
		if i%2 == 0 && len(r.prefixes) > 0 {
			e := r.prefixes[rng.Intn(len(r.prefixes))]
			add(uint64(addrToU32(e.prefix.Addr())) + uint64(rng.Intn(1<<20)) - 1<<19)
			continue
		}
		add(uint64(rng.Uint32()))
	}
	return out
}

// TestLookupFindsShortCover: a /7 announced through Announce covers
// addresses more than 2^24 past a prefix inside it, where the scan stops
// short of the /7 and the table finds it; a more-specific inside it still
// wins, and every address agrees with checking every prefix.
func TestLookupFindsShortCover(t *testing.T) {
	r := newTestRegistry(t)
	for _, a := range []struct {
		asn    ASN
		prefix string
	}{{100, "50.0.0.0/7"}, {200, "50.0.1.0/24"}, {200, "51.128.0.0/16"}, {101, "51.128.4.0/24"}, {200, "0.0.0.0/1"}, {101, "255.255.255.252/30"}} {
		if err := r.Announce(a.asn, netip.MustParsePrefix(a.prefix)); err != nil {
			t.Fatal(err)
		}
	}
	far := netip.MustParseAddr("51.200.0.1")
	if _, ok := ScanLookup(r, far); ok {
		t.Fatal("the scan found the /7 more than 2^24 past its base: the test would pass vacuously")
	}
	for ip, want := range map[string]ASN{"51.200.0.1": 100, "50.0.0.0": 100, "51.128.9.9": 200, "51.128.4.255": 101, "49.255.255.255": 200, "255.255.255.255": 101} {
		if got, ok := r.LookupAS(netip.MustParseAddr(ip)); !ok || got != want {
			t.Errorf("LookupAS(%s) = AS%d, %v; want AS%d", ip, got, ok, want)
		}
	}
	if _, ok := r.LookupAS(netip.MustParseAddr("128.0.0.1")); ok {
		t.Error("an address no prefix covers was matched")
	}
	for _, ip := range ProbeAddrs(r, rand.New(rand.NewSource(1)), 20000) {
		gotASN, gotOK := r.LookupAS(ip)
		if wantASN, wantOK := longestMatch(r, ip); gotASN != wantASN || gotOK != wantOK {
			t.Fatalf("LookupAS(%v) = AS%d, %v; checking every prefix gives AS%d, %v", ip, gotASN, gotOK, wantASN, wantOK)
		}
	}
}

// TestLookupSeesLaterAnnouncements: a lookup after a new announcement sees
// it, though an earlier lookup built the table, and of two announcements of
// one prefix the later wins.
func TestLookupSeesLaterAnnouncements(t *testing.T) {
	r := newTestRegistry(t)
	ip := netip.MustParseAddr("60.1.2.3")
	if _, ok := r.LookupAS(ip); ok {
		t.Fatal("matched before any announcement")
	}
	if err := r.Announce(200, netip.MustParsePrefix("60.0.0.0/8")); err != nil {
		t.Fatal(err)
	}
	if asn, ok := r.LookupAS(ip); !ok || asn != 200 {
		t.Fatalf("LookupAS after Announce = AS%d, %v", asn, ok)
	}
	// The same prefix announced again, from another AS: the later wins.
	if err := r.Announce(100, netip.MustParsePrefix("60.0.0.0/8")); err != nil {
		t.Fatal(err)
	}
	if asn, ok := r.LookupAS(ip); !ok || asn != 100 {
		t.Fatalf("LookupAS after a second Announce = AS%d, %v", asn, ok)
	}
}
