package core

import (
	"fmt"
	"net/netip"

	"github.com/tftproject/tft/internal/dnsserver"
	"github.com/tftproject/tft/internal/dnswire"
)

// ScanResult summarises an open-resolver scan — the prior-work methodology
// (Dagon et al. 2008, discussed in §4.3.2 and §8) that this paper's
// in-use-resolver measurement improves on. The scan can only see resolvers
// that answer strangers, so ISP-resolver hijacking — the bulk of the
// paper's findings — is invisible to it.
type ScanResult struct {
	Scanned int
	// Open answered the probe; Refused rejected it; Unreachable never
	// responded.
	Open        int
	Refused     int
	Unreachable int
	// Hijacking answered a nonexistent name with an address.
	Hijacking      int
	HijackingAddrs []netip.Addr
}

// HijackRate is the fraction of open resolvers that hijack.
func (r *ScanResult) HijackRate() float64 { return rate(r.Hijacking, r.Open) }

// OpenResolverScan probes every target resolver with a query for a
// nonexistent name under zone and classifies the answers. from is the
// scanner's address (a measurement machine, not an ISP subscriber — which
// is precisely the method's blind spot).
func OpenResolverScan(net dnsserver.Exchanger, from netip.Addr, targets []netip.Addr, zone string) *ScanResult {
	res := &ScanResult{Scanned: len(targets)}
	// The exchange hands each query back when it returns, so one datagram
	// serves the whole scan.
	buf := make([]byte, 0, 512)
	for i, target := range targets {
		name := fmt.Sprintf("nx-scan-%06d.%s", i, zone)
		wire, err := dnswire.AppendQuery(buf, uint16(i), name, dnswire.TypeA)
		if err != nil {
			continue
		}
		respWire, err := net.ExchangeDNS(from, target, wire)
		if err != nil {
			res.Unreachable++
			continue
		}
		ans, err := dnswire.ParseAnswer(respWire, uint16(i), name, dnswire.TypeA)
		if err != nil {
			// Undecodable, or not the answer to this query.
			res.Unreachable++
			continue
		}
		switch {
		case ans.RCode == dnswire.RCodeRefused:
			res.Refused++
		case ans.RCode == dnswire.RCodeNXDomain:
			res.Open++
		case ans.RCode == dnswire.RCodeSuccess && ans.A.IsValid():
			res.Open++
			res.Hijacking++
			res.HijackingAddrs = append(res.HijackingAddrs, target)
		default:
			res.Open++
		}
	}
	return res
}
