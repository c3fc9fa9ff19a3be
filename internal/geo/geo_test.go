package geo

import (
	"net/netip"
	"testing"
	"testing/quick"
)

func newTestRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	if _, err := r.AddOrg("isp-a", "ISP Alpha", "US"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddOrg("isp-b", "ISP Beta", "GB"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddAS(100, "isp-a", false); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddAS(101, "isp-a", false); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddAS(200, "isp-b", true); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDuplicateOrgRejected(t *testing.T) {
	r := newTestRegistry(t)
	if _, err := r.AddOrg("isp-a", "again", "US"); err == nil {
		t.Fatal("duplicate org accepted")
	}
}

func TestDuplicateASRejected(t *testing.T) {
	r := newTestRegistry(t)
	if _, err := r.AddAS(100, "isp-b", false); err == nil {
		t.Fatal("duplicate AS accepted")
	}
}

func TestASRequiresOrg(t *testing.T) {
	r := NewRegistry()
	if _, err := r.AddAS(1, "ghost", false); err == nil {
		t.Fatal("AS with unknown org accepted")
	}
}

func TestAllocAndLookup(t *testing.T) {
	r := newTestRegistry(t)
	p, err := r.AllocPrefix(100, 20)
	if err != nil {
		t.Fatal(err)
	}
	if p.Bits() != 20 {
		t.Fatalf("prefix bits = %d, want 20", p.Bits())
	}
	asn, ok := r.LookupAS(p.Addr())
	if !ok || asn != 100 {
		t.Fatalf("LookupAS(%v) = %d,%v; want 100", p.Addr(), asn, ok)
	}
	// Last address of the prefix also maps back.
	last := lastAddr(p)
	asn, ok = r.LookupAS(last)
	if !ok || asn != 100 {
		t.Fatalf("LookupAS(%v) = %d,%v; want 100", last, asn, ok)
	}
}

func TestAllocDistinctPrefixes(t *testing.T) {
	r := newTestRegistry(t)
	p1, err := r.AllocPrefix(100, 22)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := r.AllocPrefix(200, 22)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Overlaps(p2) {
		t.Fatalf("allocated prefixes overlap: %v %v", p1, p2)
	}
	if asn, _ := r.LookupAS(p2.Addr()); asn != 200 {
		t.Fatalf("p2 maps to AS%d, want 200", asn)
	}
}

func TestNextAddrSequentialAndOwned(t *testing.T) {
	r := newTestRegistry(t)
	seen := make(map[netip.Addr]bool)
	for i := 0; i < 500; i++ {
		a, err := r.NextAddr(100)
		if err != nil {
			t.Fatal(err)
		}
		if seen[a] {
			t.Fatalf("address %v handed out twice", a)
		}
		seen[a] = true
		asn, ok := r.LookupAS(a)
		if !ok || asn != 100 {
			t.Fatalf("LookupAS(%v) = %d,%v; want 100", a, asn, ok)
		}
	}
}

func TestNextAddrSpansPrefixes(t *testing.T) {
	r := newTestRegistry(t)
	// A /18 holds 16384 addresses; drawing more must roll into a second
	// prefix transparently.
	n := 16500
	for i := 0; i < n; i++ {
		a, err := r.NextAddr(200)
		if err != nil {
			t.Fatal(err)
		}
		if asn, ok := r.LookupAS(a); !ok || asn != 200 {
			t.Fatalf("address %d (%v) maps to AS%d, want 200", i, a, asn)
		}
	}
}

func TestLookupMiss(t *testing.T) {
	r := newTestRegistry(t)
	if _, err := r.AllocPrefix(100, 20); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.LookupAS(netip.MustParseAddr("203.0.113.7")); ok {
		t.Fatal("lookup of unallocated address succeeded")
	}
	if _, ok := r.LookupAS(netip.MustParseAddr("2001:db8::1")); ok {
		t.Fatal("IPv6 lookup succeeded")
	}
}

func TestLongestPrefixWins(t *testing.T) {
	r := newTestRegistry(t)
	if err := r.Announce(100, netip.MustParsePrefix("50.0.0.0/8")); err != nil {
		t.Fatal(err)
	}
	if err := r.Announce(200, netip.MustParsePrefix("50.1.0.0/16")); err != nil {
		t.Fatal(err)
	}
	if asn, _ := r.LookupAS(netip.MustParseAddr("50.1.2.3")); asn != 200 {
		t.Fatalf("more-specific lost: got AS%d, want 200", asn)
	}
	if asn, _ := r.LookupAS(netip.MustParseAddr("50.2.0.1")); asn != 100 {
		t.Fatalf("covering prefix lost: got AS%d, want 100", asn)
	}
}

func TestOrgAndCountry(t *testing.T) {
	r := newTestRegistry(t)
	o, ok := r.Org(200)
	if !ok || o.Name != "ISP Beta" {
		t.Fatalf("Org(200) = %+v,%v", o, ok)
	}
	cc, ok := r.Country(200)
	if !ok || cc != "GB" {
		t.Fatalf("Country(200) = %q,%v", cc, ok)
	}
	if _, ok := r.Country(999); ok {
		t.Fatal("Country of unknown AS succeeded")
	}
}

func TestASesOf(t *testing.T) {
	r := newTestRegistry(t)
	got := r.ASesOf("isp-a")
	if len(got) != 2 || got[0] != 100 || got[1] != 101 {
		t.Fatalf("ASesOf(isp-a) = %v, want [100 101]", got)
	}
}

func TestInstallGoogle(t *testing.T) {
	r := NewRegistry()
	if err := InstallGoogle(r); err != nil {
		t.Fatal(err)
	}
	if asn, ok := r.LookupAS(GoogleDNSAddr); !ok || asn != GoogleASN {
		t.Fatalf("8.8.8.8 maps to AS%d,%v", asn, ok)
	}
	if asn, ok := r.LookupAS(SuperProxyResolverEgress); !ok || asn != GoogleASN {
		t.Fatalf("super proxy egress maps to AS%d,%v", asn, ok)
	}
	cc, _ := r.Country(GoogleASN)
	if cc != "US" {
		t.Fatalf("Google country = %q", cc)
	}
}

func TestGoogleEgressDeterministicAndInRange(t *testing.T) {
	a := netip.MustParseAddr("91.4.22.19")
	e1 := GoogleEgressFor(a)
	e2 := GoogleEgressFor(a)
	if e1 != e2 {
		t.Fatal("egress mapping not deterministic")
	}
	if !IsGoogleEgress(e1) {
		t.Fatalf("egress %v outside Google netblocks", e1)
	}
}

func TestGoogleEgressSometimesSuperProxyInstance(t *testing.T) {
	super, other := 0, 0
	for i := 0; i < 4096; i++ {
		a := netip.AddrFrom4([4]byte{byte(i >> 8), byte(i), 7, 9})
		if GoogleEgressFor(a) == SuperProxyResolverEgress {
			super++
		} else {
			other++
		}
	}
	if super == 0 {
		t.Fatal("no client ever shares the super proxy's anycast instance; footnote-8 filter untestable")
	}
	if other == 0 {
		t.Fatal("every client shares the super proxy's instance")
	}
	if super > other {
		t.Fatalf("shared-instance share too high: %d vs %d", super, other)
	}
}

func TestCountryName(t *testing.T) {
	if got := CountryName("MY"); got != "Malaysia" {
		t.Fatalf("CountryName(MY) = %q", got)
	}
	if got := CountryName("ZZ"); got != "ZZ" {
		t.Fatalf("CountryName(ZZ) = %q", got)
	}
	if len(Countries) < 172 {
		t.Fatalf("curated set has %d countries; need >= 172 to match paper scale", len(Countries))
	}
}

func TestCountryCodesUnique(t *testing.T) {
	seen := make(map[CountryCode]bool)
	for _, c := range Countries {
		if seen[c.Code] {
			t.Fatalf("duplicate country code %q", c.Code)
		}
		seen[c.Code] = true
	}
}

// Property: round-tripping any u32 through addr conversion is the identity,
// and every allocated address looks up to its owner.
func TestAddrU32RoundTrip(t *testing.T) {
	f := func(v uint32) bool { return addrToU32(u32ToAddr(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAllocatedAddressesLookup(t *testing.T) {
	r := newTestRegistry(t)
	asns := []ASN{100, 101, 200}
	f := func(picks []uint8) bool {
		for _, p := range picks {
			asn := asns[int(p)%len(asns)]
			a, err := r.NextAddr(asn)
			if err != nil {
				return false
			}
			got, ok := r.LookupAS(a)
			if !ok || got != asn {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func lastAddr(p netip.Prefix) netip.Addr {
	base := addrToU32(p.Addr())
	return u32ToAddr(base + (1 << (32 - uint32(p.Bits()))) - 1)
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := newTestRegistry(t)
	if err := InstallGoogle(r); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := r.NextAddr(100); err != nil {
			t.Fatal(err)
		}
	}
	orgs, ases, prefixes := r.Snapshot()
	if len(orgs) != 3 || len(ases) != 4 {
		t.Fatalf("snapshot sizes: %d orgs, %d ases", len(orgs), len(ases))
	}
	r2, err := FromSnapshot(orgs, ases, prefixes)
	if err != nil {
		t.Fatal(err)
	}
	// Every lookup agrees between original and rebuilt registries.
	probes := []netip.Addr{GoogleDNSAddr, SuperProxyResolverEgress}
	for i := 0; i < 50; i++ {
		a, err := r.NextAddr(200)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, a)
	}
	// Addresses allocated after the snapshot won't resolve in r2; re-take
	// the snapshot so both sides carry the same announcements.
	orgs, ases, prefixes = r.Snapshot()
	r2, err = FromSnapshot(orgs, ases, prefixes)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range probes {
		a1, ok1 := r.LookupAS(p)
		a2, ok2 := r2.LookupAS(p)
		if ok1 != ok2 || a1 != a2 {
			t.Fatalf("lookup diverged for %v: (%d,%v) vs (%d,%v)", p, a1, ok1, a2, ok2)
		}
		o1, _ := r.Org(a1)
		o2, _ := r2.Org(a2)
		if (o1 == nil) != (o2 == nil) || (o1 != nil && *o1 != *o2) {
			t.Fatalf("org diverged for AS%d", a1)
		}
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := newTestRegistry(t)
	o1, a1, p1 := r.Snapshot()
	o2, a2, p2 := r.Snapshot()
	if len(o1) != len(o2) || len(a1) != len(a2) || len(p1) != len(p2) {
		t.Fatal("snapshot sizes differ")
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatal("org order unstable")
		}
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("AS order unstable")
		}
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("prefix order unstable")
		}
	}
}

func TestFromSnapshotRejectsBadData(t *testing.T) {
	if _, err := FromSnapshot(nil, []SnapshotAS{{ASN: 1, Org: "ghost"}}, nil); err == nil {
		t.Error("AS with unknown org accepted")
	}
	orgs := []SnapshotOrg{{ID: "o", Name: "O", Country: "US"}}
	if _, err := FromSnapshot(orgs, nil, []SnapshotPrefix{{Prefix: "10.0.0.0/8", ASN: 9}}); err == nil {
		t.Error("prefix from unknown AS accepted")
	}
	ases := []SnapshotAS{{ASN: 9, Org: "o"}}
	if _, err := FromSnapshot(orgs, ases, []SnapshotPrefix{{Prefix: "not-a-prefix", ASN: 9}}); err == nil {
		t.Error("malformed prefix accepted")
	}
}
