package population

import (
	"context"
	"testing"

	"github.com/tftproject/tft/internal/dnswire"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/proxynet"
)

const (
	testSeed  = 42
	testScale = 0.02
)

func dnsWorld(t testing.TB) *World {
	t.Helper()
	w, err := BuildDNSWorld(testSeed, testScale)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func sc(n int, s float64) int { return int(float64(n) * s) }

// nodes materializes every row of w's population, as a pick does.
func nodes(w *World) []*proxynet.ExitNode {
	out := make([]*proxynet.ExitNode, w.Spec.Len())
	for i := range out {
		out[i] = w.Spec.Materialize(i, w.Fabric)
	}
	return out
}

func approx(t *testing.T, label string, got, want int, tol float64) {
	t.Helper()
	lo := int(float64(want) * (1 - tol))
	hi := int(float64(want)*(1+tol)) + 2
	if got < lo || got > hi {
		t.Errorf("%s = %d, want %d (±%.0f%%)", label, got, want, tol*100)
	}
}

func TestDNSWorldScaleTotals(t *testing.T) {
	w := dnsWorld(t)
	wantNodes := sc(DNSTotalNodes, testScale)
	approx(t, "pool size", w.Pool.Len(), wantNodes, 0.10)

	hijacked := 0
	for _, tr := range w.Truths() {
		if tr.DNSHijacker != "" {
			hijacked++
		}
	}
	approx(t, "hijacked nodes", hijacked, sc(DNSHijackTotal, testScale), 0.15)
}

func TestDNSWorldCountryRatios(t *testing.T) {
	w := dnsWorld(t)
	total := make(map[geo.CountryCode]int)
	hij := make(map[geo.CountryCode]int)
	for _, tr := range w.Truths() {
		total[tr.Country]++
		if tr.DNSHijacker != "" {
			hij[tr.Country]++
		}
	}
	for _, row := range []CountryDNS{Table3[0], Table3[3], Table3[5]} { // MY, GB, US
		gotRatio := float64(hij[row.Country]) / float64(total[row.Country])
		wantRatio := float64(row.Hijacked) / float64(row.Total)
		if gotRatio < wantRatio*0.8 || gotRatio > wantRatio*1.25 {
			t.Errorf("%s hijack ratio = %.3f, want ~%.3f", row.Country, gotRatio, wantRatio)
		}
	}
	if len(total) < 150 {
		t.Errorf("world spans %d countries, want ~167", len(total))
	}
}

func TestDNSWorldDeterministic(t *testing.T) {
	w1 := dnsWorld(t)
	w2 := dnsWorld(t)
	if w1.Pool.Len() != w2.Pool.Len() {
		t.Fatalf("pool sizes differ: %d vs %d", w1.Pool.Len(), w2.Pool.Len())
	}
	n1, n2 := nodes(w1), nodes(w2)
	for i := range n1 {
		if n1[i].ZID != n2[i].ZID || n1[i].Addr != n2[i].Addr || n1[i].Country != n2[i].Country {
			t.Fatalf("node %d differs: %v vs %v", i, n1[i], n2[i])
		}
	}
	for _, t1 := range w1.Truths() {
		if t2 := w2.TruthFor(t1.ZID); t2 == nil || *t1 != *t2 {
			t.Fatalf("truth differs for %s", t1.ZID)
		}
	}
}

func TestDNSWorldGroundTruthBehaviour(t *testing.T) {
	// Ground truth must match behaviour: a node marked hijacked must
	// actually receive a rewritten NXDOMAIN, and a clean node must not.
	w := dnsWorld(t)
	// No answer policy is installed: "gone" is NXDOMAIN at the authority.
	checked := map[string]int{}
	for _, n := range nodes(w) {
		tr := w.TruthFor(n.ZID)
		kind := "clean"
		if tr.DNSHijacker != "" {
			kind = "hijacked"
		}
		if checked[kind] >= 40 {
			continue
		}
		checked[kind]++
		ip, rcode, err := n.ResolveA(context.Background(), "gone."+Zone)
		if err != nil {
			t.Fatalf("%s: %v", n.ZID, err)
		}
		if tr.DNSHijacker == "" && rcode != dnswire.RCodeNXDomain {
			t.Fatalf("clean node %s got rcode %v ip %v", n.ZID, rcode, ip)
		}
		if tr.DNSHijacker != "" && (rcode != dnswire.RCodeSuccess || !ip.IsValid()) {
			t.Fatalf("hijacked node %s (by %s) got rcode %v", n.ZID, tr.DNSHijacker, rcode)
		}
	}
	if checked["hijacked"] == 0 || checked["clean"] == 0 {
		t.Fatal("did not exercise both classes")
	}
}

func TestDNSWorldGoogleUsersExist(t *testing.T) {
	w := dnsWorld(t)
	google, pathHijacked := 0, 0
	for _, tr := range w.Truths() {
		if tr.UsesGoogleDNS {
			google++
			if tr.DNSHijacker != "" {
				pathHijacked++
			}
		}
	}
	if google == 0 {
		t.Fatal("no Google DNS users")
	}
	// Named path/software groups are floored at 3 nodes each, so the small-
	// scale count sits between the plain scaling and the sum of floors.
	if lo, hi := sc(927, testScale), 70; pathHijacked < lo || pathHijacked > hi {
		t.Errorf("Google-DNS hijacked (path/software) = %d, want in [%d,%d]", pathHijacked, lo, hi)
	}
}

func TestDNSWorldNodeAddressesResolveToTruthAS(t *testing.T) {
	w := dnsWorld(t)
	for i, n := range nodes(w) {
		if i%97 != 0 {
			continue
		}
		asn, ok := w.Geo.LookupAS(n.Addr)
		if !ok || asn != w.TruthFor(n.ZID).ASN {
			t.Fatalf("node %s addr %v maps to AS%d, truth AS%d", n.ZID, n.Addr, asn, w.TruthFor(n.ZID).ASN)
		}
		cc, ok := w.Geo.Country(asn)
		if !ok || cc != n.Country {
			t.Fatalf("node %s AS%d country %q, want %q", n.ZID, asn, cc, n.Country)
		}
	}
}

func TestHTTPWorld(t *testing.T) {
	w, err := BuildHTTPWorld(testSeed, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "pool size", w.Pool.Len(), sc(HTTPTotalNodes, 0.05), 0.10)
	counts := map[string]int{}
	imgCounts := map[string]int{}
	for _, tr := range w.Truths() {
		if tr.HTTPModifier != "" {
			counts[tr.HTTPModifier]++
		}
		if tr.ImageISP != "" {
			imgCounts[tr.ImageISP]++
		}
	}
	if counts["NetSpark web filter"] == 0 {
		t.Error("no NetSpark nodes")
	}
	approx(t, "cloudfront injector nodes", counts["cloudfront ad malware"], sc(201, 0.05), 0.4)
	if imgCounts["Globe Telecom"] == 0 || imgCounts["Vodacom"] == 0 {
		t.Errorf("image groups missing: %v", imgCounts)
	}
}

func TestTLSWorld(t *testing.T) {
	w, err := BuildTLSWorld(testSeed, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if w.Sites == nil {
		t.Fatal("no site registry")
	}
	if len(w.Sites.Countries()) != TLSTotalCountries {
		t.Fatalf("site countries = %d, want %d", len(w.Sites.Countries()), TLSTotalCountries)
	}
	if len(w.Sites.Universities) != 10 || len(w.Sites.Invalid) != 3 {
		t.Fatalf("universities %d, invalid %d", len(w.Sites.Universities), len(w.Sites.Invalid))
	}
	// Valid sites verify against the clean store; invalid ones do not.
	for _, cc := range w.Sites.Countries()[:3] {
		s := w.Sites.Popular[cc][0]
		if err := w.Trust.Verify(s.Host, s.Chain, Epoch); err != nil {
			t.Fatalf("popular site %s chain invalid: %v", s.Host, err)
		}
	}
	for _, s := range w.Sites.Invalid {
		if err := w.Trust.Verify(s.Host, s.Chain, Epoch); err == nil {
			t.Fatalf("invalid site %s verified", s.Host)
		}
	}
	products := map[string]int{}
	for _, tr := range w.Truths() {
		if tr.TLSProduct != "" {
			products[tr.TLSProduct]++
		}
	}
	approx(t, "Avast nodes", products["Avast"], sc(3283, 0.01), 0.25)
	if products["OpenDNS"] == 0 || products["Cloudguard.me"] == 0 {
		t.Errorf("products missing: %v", products)
	}
}

func TestMonitorWorld(t *testing.T) {
	w, err := BuildMonitorWorld(testSeed, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	monitored := map[string]int{}
	for _, tr := range w.Truths() {
		if tr.MonitorProduct != "" {
			monitored[tr.MonitorProduct]++
		}
	}
	approx(t, "TrendMicro nodes", monitored["Trend Micro"], sc(6571, 0.01), 0.25)
	approx(t, "TalkTalk nodes", monitored["TalkTalk"], sc(2233, 0.01), 0.25)
	if monitored["AnchorFree"] == 0 || monitored["Bluecoat"] == 0 || monitored["Tiscali U.K."] == 0 {
		t.Errorf("named monitors missing: %v", monitored)
	}
	// TalkTalk coverage fraction: monitored / ISP total ≈ 45.2%.
	ttTotal, ttMon := 0, 0
	for _, n := range nodes(w) {
		org, ok := w.Geo.Org(n.ASN)
		if ok && org.ID == "talktalk-gb" {
			ttTotal++
			if w.TruthFor(n.ZID).MonitorProduct == "TalkTalk" {
				ttMon++
			}
		}
	}
	if ttTotal == 0 {
		t.Fatal("no TalkTalk nodes")
	}
	frac := float64(ttMon) / float64(ttTotal)
	if frac < 0.35 || frac > 0.55 {
		t.Errorf("TalkTalk coverage = %.2f, want ~0.452", frac)
	}
}

func TestMonitorWorldRefetchArrives(t *testing.T) {
	w, err := BuildMonitorWorld(testSeed, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// Find a TrendMicro node and fetch through it directly.
	var node *proxynet.ExitNode
	for _, n := range nodes(w) {
		if w.TruthFor(n.ZID).MonitorProduct == "Trend Micro" {
			node = n
			break
		}
	}
	if node == nil {
		t.Fatal("no TrendMicro node")
	}
	host := "u-test." + Zone
	resp, err := node.FetchHTTP(context.Background(), host, 80, "/", WebIP)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("fetch: %v %v", err, resp)
	}
	// The node's own request is logged...
	if got := len(w.Web.RequestsFor(host)); got != 1 {
		t.Fatalf("immediate requests = %d", got)
	}
	// ...and after the 24h window the monitor's two refetches arrive from
	// foreign addresses.
	w.Clock.Run()
	reqs := w.Web.RequestsFor(host)
	if len(reqs) != 3 {
		t.Fatalf("total requests = %d, want 3", len(reqs))
	}
	for _, r := range reqs[1:] {
		if r.Src == node.Addr {
			t.Fatal("unexpected request came from the node itself")
		}
		asn, _ := w.Geo.LookupAS(r.Src)
		org, _ := w.Geo.Org(asn)
		if org == nil || org.Name != "Trend Micro" {
			t.Fatalf("unexpected request from %v (org %v)", r.Src, org)
		}
	}
}

func TestScaleValidation(t *testing.T) {
	if _, err := BuildDNSWorld(1, 0); err == nil {
		t.Error("scale 0 accepted")
	}
	if _, err := BuildDNSWorld(1, 1.5); err == nil {
		t.Error("scale >1 accepted")
	}
}

func TestSMTPWorld(t *testing.T) {
	w, err := BuildSMTPWorld(testSeed, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Super.AnyPortConnect {
		t.Fatal("SMTP world without any-port tunnels")
	}
	blocked, stripped, clean := 0, 0, 0
	for _, tr := range w.Truths() {
		switch tr.HTTPModifier {
		case "smtp:port25-blocked":
			blocked++
		case "smtp:starttls-stripped":
			stripped++
		default:
			clean++
		}
	}
	total := blocked + stripped + clean
	approx(t, "SMTP world size", total, sc(SMTPTotalNodes, 0.02), 0.05)
	rate := float64(blocked) / float64(total)
	if rate < 0.10 || rate > 0.14 {
		t.Fatalf("blocked share = %.3f, want ~0.12", rate)
	}
	if stripped == 0 {
		t.Fatal("no strippers")
	}
}

func TestCloudguardConfinedToRussia(t *testing.T) {
	w, err := BuildTLSWorld(testSeed, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, tr := range w.Truths() {
		if tr.TLSProduct == "Cloudguard.me" {
			found++
			if tr.Country != "RU" {
				t.Fatalf("Cloudguard node in %s; §6.2 pins them to Russian ISPs", tr.Country)
			}
		}
	}
	if found == 0 {
		t.Fatal("no Cloudguard nodes")
	}
}
