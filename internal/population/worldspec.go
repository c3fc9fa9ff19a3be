package population

import (
	"net/netip"
	"strconv"

	"github.com/tftproject/tft/internal/dnsserver"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/middlebox"
	"github.com/tftproject/tft/internal/proxynet"
	"github.com/tftproject/tft/internal/simnet"
)

// WorldSpec is the recorded blueprint of a world's exit-node population.
// The builders run exactly as they would for an eager world — consuming the
// same random streams and allocating addresses in the same order — but each
// addNode call records one compact columnar row here instead of
// materializing a *proxynet.ExitNode and registering it in a pool. Nodes
// are materialized on demand, one fresh instance per pick, so idle cost per
// unrealized node is a handful of column cells instead of a live node
// object plus pool and truth map entries. A node's ground truth is
// its row: the identity columns and the labels its builder set.
//
// Storage is structure-of-arrays: shared components (resolvers and violator
// paths, a monitored node's path holding its monitor and that monitor's
// random stream) are stored as pointers to objects the builders share
// between many nodes, so two materializations of the same index observe the
// same cross-pick state.
type WorldSpec struct {
	addrs     []netip.Addr
	asns      []geo.ASN
	countries []geo.CountryCode
	resolvers []*dnsserver.Resolver
	paths     []*middlebox.Path
	labels    []Labels
}

// NewWorldSpec creates an empty spec store.
func NewWorldSpec() *WorldSpec { return &WorldSpec{} }

// Len is the recorded population size.
func (s *WorldSpec) Len() int { return len(s.addrs) }

// ZID returns the persistent identifier of node i. Identifiers are dense —
// node i is "z%08d" of i+1 — so a zID maps back to its row without an index
// structure.
func (s *WorldSpec) ZID(i int) string {
	zid := [9]byte{'z', '0', '0', '0', '0', '0', '0', '0', '0'}
	var digits [8]byte // what Index maps back: at most eight
	d := strconv.AppendInt(digits[:0], int64(i+1), 10)
	copy(zid[len(zid)-len(d):], d)
	return string(zid[:])
}

// Index maps a zID back to its row, reporting false for identifiers this
// spec never issued.
func (s *WorldSpec) Index(zid string) (int, bool) {
	if len(zid) != 9 || zid[0] != 'z' {
		return 0, false
	}
	n := 0
	for i := 1; i < len(zid); i++ {
		c := zid[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	if n < 1 || n > len(s.addrs) {
		return 0, false
	}
	return n - 1, true
}

// add records one node row and returns its index.
func (s *WorldSpec) add(cc geo.CountryCode, asn geo.ASN, addr netip.Addr, resolver *dnsserver.Resolver, path *middlebox.Path) int {
	i := len(s.addrs)
	s.addrs = append(s.addrs, addr)
	s.asns = append(s.asns, asn)
	s.countries = append(s.countries, cc)
	s.resolvers = append(s.resolvers, resolver)
	s.paths = append(s.paths, path)
	s.labels = append(s.labels, Labels{})
	return i
}

// Materialize builds the live exit node for row i, carrying its traffic
// over net with its deadline budgets on clock. Every call returns a fresh
// instance; all cross-pick state lives in the shared resolver and path
// components.
func (s *WorldSpec) Materialize(i int, net proxynet.Dialer, clock simnet.Clock) *proxynet.ExitNode {
	return &proxynet.ExitNode{
		ZID:      s.ZID(i),
		Addr:     s.addrs[i],
		ASN:      s.asns[i],
		Country:  s.countries[i],
		Resolver: s.resolvers[i],
		Path:     s.paths[i],
		Net:      net,
		Clock:    clock,
	}
}

// NodeHandle is the builders' reference to a recorded node: enough to set
// the component assigned after creation (the violator path) and the
// ground-truth labels, without keeping a live node around.
type NodeHandle struct {
	spec *WorldSpec
	idx  int
}

// ZID returns the node's persistent identifier.
func (h NodeHandle) ZID() string { return h.spec.ZID(h.idx) }

// SetPath assigns the node's violator path.
func (h NodeHandle) SetPath(p *middlebox.Path) { h.spec.paths[h.idx] = p }
