// Package geo models the pieces of Internet cartography the paper relies
// on: Autonomous Systems, the organizations (ISPs) that operate them, the
// countries those organizations are registered in, and the IPv4 address
// space each AS announces.
//
// The paper (§3.1) maps IP addresses to ASes with RouteViews data and ASes
// to organizations and countries with CAIDA's AS-organizations dataset.
// Registry exposes the same two queries — LookupAS(ip) and Org(asn) — over a
// synthetic allocation, so every attribution step in internal/analysis runs
// against the interface the paper used.
package geo

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// ASN is an Autonomous System number.
type ASN uint32

// CountryCode is an ISO 3166-1 alpha-2 country code.
type CountryCode string

// OrgID identifies an organization (ISP) in the registry. One organization
// may operate several ASes, exactly as in CAIDA's dataset.
type OrgID string

// Organization is an ISP or other network operator.
type Organization struct {
	ID      OrgID
	Name    string
	Country CountryCode
}

// AS is one autonomous system and its operator.
type AS struct {
	Number ASN
	Org    OrgID
	// Mobile marks ASes operated as cellular networks; the paper's image
	// transcoding findings (§5.2, Table 7) are exclusive to mobile ISPs.
	Mobile bool
}

// Registry is the synthetic RouteViews + CAIDA stand-in: organizations,
// their ASes, and the IPv4 prefixes each AS announces. It allocates address
// space on demand and answers longest-prefix IP→AS lookups. Safe for
// concurrent reads after construction; registration is serialized.
type Registry struct {
	mu   sync.RWMutex
	orgs map[OrgID]*Organization
	ases map[ASN]*AS
	// prefixes are appended as announced and sorted in place, stably, by
	// the lookup that next builds the table.
	prefixes []prefixEntry
	// table is LookupAS's view of prefixes, flattened; nil once prefixes
	// has changed, until the next lookup builds it again.
	table atomic.Pointer[[]interval]

	// nextBlock walks the allocatable space handing out /16-aligned blocks.
	nextBlock uint32
	// cursor per AS for sequential address assignment inside its prefixes.
	cursors map[ASN]*allocCursor
}

type prefixEntry struct {
	prefix netip.Prefix
	asn    ASN
}

type allocCursor struct {
	prefix netip.Prefix
	next   uint32 // next host offset within prefix
	size   uint32 // number of addresses in prefix
}

// allocBase is where synthetic allocation starts. The space below (and a few
// carved-out ranges) is reserved for well-known actors pinned by tests.
const allocBase = 0x0B000000 // 11.0.0.0

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		orgs:      make(map[OrgID]*Organization),
		ases:      make(map[ASN]*AS),
		cursors:   make(map[ASN]*allocCursor),
		nextBlock: allocBase,
	}
}

// AddOrg registers an organization. Re-registering an existing ID is an
// error: the calibrated world must not silently merge distinct operators.
func (r *Registry) AddOrg(id OrgID, name string, country CountryCode) (*Organization, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.orgs[id]; ok {
		return nil, fmt.Errorf("geo: organization %q already registered", id)
	}
	o := &Organization{ID: id, Name: name, Country: country}
	r.orgs[id] = o
	return o, nil
}

// AddAS registers an AS operated by org. The organization must already
// exist.
func (r *Registry) AddAS(asn ASN, org OrgID, mobile bool) (*AS, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.orgs[org]; !ok {
		return nil, fmt.Errorf("geo: AS%d references unknown organization %q", asn, org)
	}
	if _, ok := r.ases[asn]; ok {
		return nil, fmt.Errorf("geo: AS%d already registered", asn)
	}
	a := &AS{Number: asn, Org: org, Mobile: mobile}
	r.ases[asn] = a
	return a, nil
}

// Announce records that asn originates prefix. Used both by the synthetic
// allocator and to pin well-known real-world ranges (Google's 8.8.8.0/24 and
// 74.125.0.0/16, which the paper's methodology special-cases).
func (r *Registry) Announce(asn ASN, prefix netip.Prefix) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.ases[asn]; !ok {
		return fmt.Errorf("geo: announce from unknown AS%d", asn)
	}
	return r.announceLocked(asn, prefix)
}

func (r *Registry) announceLocked(asn ASN, prefix netip.Prefix) error {
	if !prefix.Addr().Is4() {
		return fmt.Errorf("geo: only IPv4 prefixes are supported, got %v", prefix)
	}
	r.prefixes = append(r.prefixes, prefixEntry{prefix: prefix.Masked(), asn: asn})
	r.table.Store(nil)
	return nil
}

// AllocPrefix carves a fresh /p prefix out of unallocated space and
// announces it from asn.
func (r *Registry) AllocPrefix(asn ASN, bits int) (netip.Prefix, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.ases[asn]; !ok {
		return netip.Prefix{}, fmt.Errorf("geo: allocation for unknown AS%d", asn)
	}
	if bits < 8 || bits > 30 {
		return netip.Prefix{}, fmt.Errorf("geo: prefix length /%d out of range", bits)
	}
	size := uint32(1) << (32 - bits)
	// Align the block to its own size.
	base := (r.nextBlock + size - 1) &^ (size - 1)
	if base < r.nextBlock || base+size < base {
		return netip.Prefix{}, fmt.Errorf("geo: IPv4 allocation space exhausted")
	}
	r.nextBlock = base + size
	p := netip.PrefixFrom(u32ToAddr(base), bits)
	if err := r.announceLocked(asn, p); err != nil {
		return netip.Prefix{}, err
	}
	return p, nil
}

// NextAddr hands out the next unused address from asn's allocated space,
// allocating a new prefix when the current one is exhausted. This is how the
// population generator assigns node and resolver addresses.
func (r *Registry) NextAddr(asn ASN) (netip.Addr, error) {
	r.mu.Lock()
	cur := r.cursors[asn]
	r.mu.Unlock()
	if cur == nil || cur.next >= cur.size {
		// A /18 (16k addresses) per chunk keeps the prefix table small even
		// for million-node worlds.
		p, err := r.AllocPrefix(asn, 18)
		if err != nil {
			return netip.Addr{}, err
		}
		cur = &allocCursor{prefix: p, next: 1, size: 1 << (32 - uint32(p.Bits()))}
		r.mu.Lock()
		r.cursors[asn] = cur
		r.mu.Unlock()
	}
	base := addrToU32(cur.prefix.Addr())
	a := u32ToAddr(base + cur.next)
	cur.next++
	return a, nil
}

// LookupAS maps an IP address to the AS announcing its covering prefix
// (longest match), as RouteViews-derived tools do: one binary search of
// the flattened table, taking no lock once the table is built.
func (r *Registry) LookupAS(ip netip.Addr) (ASN, bool) {
	if !ip.Is4() {
		return 0, false
	}
	table := r.table.Load()
	if table == nil {
		r.mu.Lock()
		if table = r.table.Load(); table == nil {
			// Stable, so that equal prefixes stay in announcement order.
			slices.SortStableFunc(r.prefixes, comparePrefixes)
			flat := flatten(r.prefixes)
			table = &flat
			r.table.Store(table)
		}
		r.mu.Unlock()
	}
	// The last interval starting at or below the address holds it; the
	// first starts at 0.
	want, t := addrToU32(ip), *table
	lo, hi := 0, len(t)
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if t[mid].start <= want {
			lo = mid
		} else {
			hi = mid
		}
	}
	return t[lo].asn, t[lo].ok
}

// interval is one run of the address space with a single longest match:
// from start up to the next interval's start.
type interval struct {
	start uint32
	asn   ASN
	ok    bool // some prefix covers the run
}

// comparePrefixes orders prefixes by base address, then length.
func comparePrefixes(a, b prefixEntry) int {
	return cmp.Or(cmp.Compare(addrToU32(a.prefix.Addr()), addrToU32(b.prefix.Addr())),
		cmp.Compare(a.prefix.Bits(), b.prefix.Bits()))
}

// flatten turns prefixes, sorted by comparePrefixes, into intervals
// that tile the IPv4 space in address order, each naming the longest prefix
// covering it; of equal prefixes, the one announced last wins. Prefixes
// nest or are disjoint, so a sweep in address order (covering prefixes
// before those they cover) keeps the ones covering the sweep point on a
// stack, the longest on top.
func flatten(sorted []prefixEntry) []interval {
	out := []interval{{}}
	// set starts an interval at, replacing one that starts there.
	set := func(at uint64, asn ASN, ok bool) {
		if last := &out[len(out)-1]; uint64(last.start) == at {
			*last = interval{start: uint32(at), asn: asn, ok: ok}
		} else if last.asn != asn || last.ok != ok {
			out = append(out, interval{start: uint32(at), asn: asn, ok: ok})
		}
	}
	end := func(p prefixEntry) uint64 { return uint64(addrToU32(p.prefix.Addr())) + 1<<(32-p.prefix.Bits()) }
	var open []prefixEntry
	// closeTo pops the open prefixes that end at or below at, resuming the
	// next one out (or no match) where each ends.
	closeTo := func(at uint64) {
		for len(open) > 0 && end(open[len(open)-1]) <= at {
			e := end(open[len(open)-1])
			open = open[:len(open)-1]
			if e > 1<<32-1 {
				continue
			}
			if len(open) > 0 {
				set(e, open[len(open)-1].asn, true)
			} else {
				set(e, 0, false)
			}
		}
	}
	for _, p := range sorted {
		base := uint64(addrToU32(p.prefix.Addr()))
		closeTo(base)
		set(base, p.asn, true)
		open = append(open, p)
	}
	closeTo(1 << 32)
	return out
}

// ASInfo returns the AS record for asn.
func (r *Registry) ASInfo(asn ASN) (*AS, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.ases[asn]
	return a, ok
}

// Org returns the organization operating asn.
func (r *Registry) Org(asn ASN) (*Organization, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.ases[asn]
	if !ok {
		return nil, false
	}
	o, ok := r.orgs[a.Org]
	return o, ok
}

// OrgByID returns the organization with the given ID.
func (r *Registry) OrgByID(id OrgID) (*Organization, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	o, ok := r.orgs[id]
	return o, ok
}

// Country returns the registration country for asn, following the paper's
// convention of inferring country from the AS's organization.
func (r *Registry) Country(asn ASN) (CountryCode, bool) {
	o, ok := r.Org(asn)
	if !ok {
		return "", false
	}
	return o.Country, true
}

// NumASes returns the number of registered ASes.
func (r *Registry) NumASes() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.ases)
}

// NumOrgs returns the number of registered organizations.
func (r *Registry) NumOrgs() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.orgs)
}

// ASesOf lists the AS numbers operated by org, sorted ascending.
func (r *Registry) ASesOf(org OrgID) []ASN {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []ASN
	for asn, a := range r.ases {
		if a.Org == org {
			out = append(out, asn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func addrToU32(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func u32ToAddr(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// SnapshotOrg, SnapshotAS, and SnapshotPrefix are the registry's
// serializable form — the synthetic analogue of publishing the RouteViews
// and CAIDA snapshots alongside a dataset release.
type SnapshotOrg struct {
	ID      OrgID       `json:"id"`
	Name    string      `json:"name"`
	Country CountryCode `json:"country"`
}

// SnapshotAS is one AS row.
type SnapshotAS struct {
	ASN    ASN   `json:"asn"`
	Org    OrgID `json:"org"`
	Mobile bool  `json:"mobile,omitempty"`
}

// SnapshotPrefix is one announced prefix.
type SnapshotPrefix struct {
	Prefix string `json:"prefix"`
	ASN    ASN    `json:"asn"`
}

// Snapshot exports the registry's contents, sorted deterministically.
func (r *Registry) Snapshot() ([]SnapshotOrg, []SnapshotAS, []SnapshotPrefix) {
	r.mu.Lock()
	defer r.mu.Unlock()
	orgs := make([]SnapshotOrg, 0, len(r.orgs))
	for _, o := range r.orgs {
		orgs = append(orgs, SnapshotOrg{ID: o.ID, Name: o.Name, Country: o.Country})
	}
	sort.Slice(orgs, func(i, j int) bool { return orgs[i].ID < orgs[j].ID })
	ases := make([]SnapshotAS, 0, len(r.ases))
	for _, a := range r.ases {
		ases = append(ases, SnapshotAS{ASN: a.Number, Org: a.Org, Mobile: a.Mobile})
	}
	sort.Slice(ases, func(i, j int) bool { return ases[i].ASN < ases[j].ASN })
	prefixes := make([]SnapshotPrefix, 0, len(r.prefixes))
	for _, p := range r.prefixes {
		prefixes = append(prefixes, SnapshotPrefix{Prefix: p.prefix.String(), ASN: p.asn})
	}
	sort.Slice(prefixes, func(i, j int) bool {
		if prefixes[i].Prefix != prefixes[j].Prefix {
			return prefixes[i].Prefix < prefixes[j].Prefix
		}
		return prefixes[i].ASN < prefixes[j].ASN
	})
	return orgs, ases, prefixes
}

// FromSnapshot rebuilds a registry from exported rows.
func FromSnapshot(orgs []SnapshotOrg, ases []SnapshotAS, prefixes []SnapshotPrefix) (*Registry, error) {
	r := NewRegistry()
	for _, o := range orgs {
		if _, err := r.AddOrg(o.ID, o.Name, o.Country); err != nil {
			return nil, err
		}
	}
	for _, a := range ases {
		if _, err := r.AddAS(a.ASN, a.Org, a.Mobile); err != nil {
			return nil, err
		}
	}
	for _, p := range prefixes {
		pfx, err := netip.ParsePrefix(p.Prefix)
		if err != nil {
			return nil, fmt.Errorf("geo: snapshot prefix %q: %w", p.Prefix, err)
		}
		if err := r.Announce(p.ASN, pfx); err != nil {
			return nil, err
		}
	}
	return r, nil
}
