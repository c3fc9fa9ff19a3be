package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"testing"
	"time"

	"github.com/tftproject/tft/internal/content"
	"github.com/tftproject/tft/internal/dnswire"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/population"
	"github.com/tftproject/tft/internal/simnet"
)

const (
	testSeed  = 7
	dnsScale  = 0.01
	httpScale = 0.05
	tlsScale  = 0.004
	monScale  = 0.01
)

// runDNS builds a DNS world and runs the experiment over it.
func runDNS(t testing.TB, scale float64) (*population.World, *DNSDataset) {
	t.Helper()
	w, err := population.BuildDNSWorld(testSeed, scale)
	if err != nil {
		t.Fatal(err)
	}
	exp := &DNSExperiment{
		Client: w.Client, Auth: w.Auth, Web: w.Web, Geo: w.Geo,
		Zone: population.Zone, Weights: w.Pool.CountryCounts(), Seed: testSeed,
	}
	w.Auth.SetFallback(ProbeRules(population.WebIP, geo.SuperProxyResolverEgress))
	ds, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return w, ds
}

func TestBudget(t *testing.T) {
	b := NewBudget(100)
	if !b.Charge("z1", 60) {
		t.Fatal("first charge rejected")
	}
	if b.Charge("z1", 60) {
		t.Fatal("over-budget charge accepted")
	}
	if !b.Charge("z2", 60) {
		t.Fatal("other node affected")
	}
	if b.Used("z1") != 120 {
		t.Fatalf("Used = %d", b.Used("z1"))
	}
	if NewBudget(0).MaxBytes != DefaultBudgetBytes {
		t.Fatal("default budget not applied")
	}
}

func TestCrawlerStopRule(t *testing.T) {
	weights := map[geo.CountryCode]int{"DE": 50, "US": 150}
	cfg := CrawlConfig{Workers: 1, Window: 50, StopNewRate: 0.1, MaxSessions: 100000}
	cr := newCrawler(cfg, weights, testRand())
	// Simulate a world with 30 nodes: novelty dries up, crawl must stop
	// well before MaxSessions.
	for {
		cc, _, ok := cr.next(context.Background())
		if !ok {
			break
		}
		_ = cc
		zid := string(rune('a' + cr.rng.IntN(30)))
		cr.observe(zid)
	}
	st := cr.stats()
	if !st.StoppedByRule {
		t.Fatal("stop rule never triggered")
	}
	if st.Sessions >= 100000 {
		t.Fatal("crawl ran to the session cap")
	}
	if st.UniqueNodes < 25 {
		t.Fatalf("coverage = %d/30 nodes", st.UniqueNodes)
	}
}

func TestCrawlerCountryProportional(t *testing.T) {
	weights := map[geo.CountryCode]int{"DE": 100, "US": 300}
	cr := newCrawler(CrawlConfig{MaxSessions: 8000, Window: 10000}, weights, testRand())
	counts := map[geo.CountryCode]int{}
	for {
		cc, _, ok := cr.next(context.Background())
		if !ok {
			break
		}
		counts[cc]++
	}
	frac := float64(counts["US"]) / float64(counts["US"]+counts["DE"])
	if frac < 0.70 || frac > 0.80 {
		t.Fatalf("US fraction = %.2f, want ~0.75", frac)
	}
}

func TestDNSExperimentEndToEnd(t *testing.T) {
	w, ds := runDNS(t, dnsScale)
	if len(ds.Observations) == 0 {
		t.Fatal("no observations")
	}
	if !ds.Crawl.StoppedByRule {
		t.Error("crawl did not stop by rule")
	}

	// Coverage: most of the pool measured.
	coverage := float64(len(ds.Observations)) / float64(w.Pool.Len())
	if coverage < 0.80 {
		t.Fatalf("coverage = %.2f", coverage)
	}

	// Measured hijack rate tracks the world's ~4.8%, excluding filtered
	// shared-anycast nodes.
	measured, hijacked, filtered := 0, 0, 0
	for _, o := range ds.Observations {
		if o.SharedAnycast {
			filtered++
			continue
		}
		measured++
		if o.Hijacked {
			hijacked++
		}
	}
	rate := float64(hijacked) / float64(measured)
	if rate < 0.035 || rate > 0.065 {
		t.Fatalf("hijack rate = %.3f, want ~0.048", rate)
	}
	if filtered == 0 {
		t.Error("no shared-anycast nodes filtered; footnote-8 path untested")
	}

	// Per-node verdicts must match ground truth.
	wrong := 0
	for _, o := range ds.Observations {
		if o.SharedAnycast {
			continue
		}
		truth := w.TruthFor(o.ZID)
		if truth == nil {
			t.Fatalf("measured unknown node %s", o.ZID)
		}
		if o.Hijacked != (truth.DNSHijacker != "") {
			wrong++
		}
	}
	if wrong > 0 {
		t.Fatalf("%d verdicts disagree with ground truth", wrong)
	}
}

func TestDNSExperimentResolverAndLanding(t *testing.T) {
	w, ds := runDNS(t, dnsScale)
	sawLanding := 0
	for _, o := range ds.Observations {
		if o.SharedAnycast {
			continue
		}
		if !o.ResolverIP.IsValid() {
			t.Fatalf("node %s has no resolver IP", o.ZID)
		}
		if o.Hijacked {
			if len(o.LandingDomains) > 0 {
				sawLanding++
			}
			truth := w.TruthFor(o.ZID)
			_ = truth
		}
	}
	if sawLanding == 0 {
		t.Fatal("no hijacked node produced landing domains")
	}
}

func TestDNSCountryDerivedFromIP(t *testing.T) {
	w, ds := runDNS(t, dnsScale)
	for _, o := range ds.Observations {
		truth := w.TruthFor(o.ZID)
		if o.Country != truth.Country {
			t.Fatalf("node %s measured country %q, truth %q", o.ZID, o.Country, truth.Country)
		}
		if o.ASN != truth.ASN {
			t.Fatalf("node %s measured AS%d, truth AS%d", o.ZID, o.ASN, truth.ASN)
		}
	}
}

func TestHTTPExperimentEndToEnd(t *testing.T) {
	poisonReleasedBodies(t)
	w, err := population.BuildHTTPWorld(testSeed, httpScale)
	if err != nil {
		t.Fatal(err)
	}
	exp := &HTTPExperiment{
		Client: w.Client, Auth: w.Auth, Geo: w.Geo,
		Zone: population.Zone, Weights: w.Pool.CountryCounts(), Seed: testSeed,
	}
	w.Auth.SetFallback(ProbeRules(population.WebIP, geo.SuperProxyResolverEgress))
	ds, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Observations) == 0 {
		t.Fatal("no observations")
	}

	htmlMod, imgMod := 0, 0
	for _, o := range ds.Observations {
		truth := w.TruthFor(o.ZID)
		html := o.Objects[content.KindHTML]
		img := o.Objects[content.KindImage]
		// The response buffers went back to their pools (poisoned, here)
		// when each fetch ended; a retained body must be the driver's own
		// copy, still a page.
		if html.Body != nil && (len(html.Body) != html.BodyLen || !bytes.HasPrefix(html.Body, []byte("<"))) {
			t.Fatalf("node %s: retained HTML body (%d of %d bytes) starts %.16q; it aliases a released buffer",
				o.ZID, len(html.Body), html.BodyLen, html.Body)
		}
		if html.Outcome == ObjModified || html.Outcome == ObjBlocked {
			htmlMod++
			if truth.HTTPModifier == "" {
				t.Fatalf("false positive HTML modification on %s", o.ZID)
			}
		} else if html.Outcome == ObjUnmodified && truth.HTTPModifier != "" && truth.HTTPModifier != "js-replaced" && truth.HTTPModifier != "css-replaced" {
			t.Fatalf("missed HTML modifier %q on %s", truth.HTTPModifier, o.ZID)
		}
		if img.Outcome == ObjModified {
			imgMod++
			if truth.ImageISP == "" {
				t.Fatalf("false positive image modification on %s", o.ZID)
			}
			if img.ImageRatio <= 0 || img.ImageRatio >= 1 {
				t.Fatalf("image ratio = %v", img.ImageRatio)
			}
		}
	}
	if htmlMod == 0 || imgMod == 0 {
		t.Fatalf("htmlMod=%d imgMod=%d; expected detections", htmlMod, imgMod)
	}
	if ds.SkippedQuota == 0 {
		t.Error("AS sampling never skipped a node; quota logic untested")
	}
}

func TestTLSExperimentEndToEnd(t *testing.T) {
	w, err := population.BuildTLSWorld(testSeed, tlsScale)
	if err != nil {
		t.Fatal(err)
	}
	exp := &TLSExperiment{
		Client: closesOnce(t, w.Client), Geo: w.Geo, Trust: w.Trust,
		Targets: TargetsFromRegistry(w.Sites),
		Weights: w.Pool.CountryCounts(), Seed: testSeed,
		Now: w.Clock.Now,
	}
	ds, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Observations) == 0 {
		t.Fatal("no observations")
	}
	replacedNodes := 0
	for _, o := range ds.Observations {
		truth := w.TruthFor(o.ZID)
		if o.AnyReplaced() {
			replacedNodes++
			if truth.TLSProduct == "" {
				t.Fatalf("false positive replacement on %s", o.ZID)
			}
			if !o.Phase2 {
				t.Fatalf("replacement without phase-2 scan on %s", o.ZID)
			}
		} else if truth.TLSProduct != "" && truth.TLSProduct != "OpenDNS" {
			// Full-MITM products must always be caught in phase 1;
			// OpenDNS is selective, so misses are expected.
			t.Fatalf("missed TLS product %q on %s", truth.TLSProduct, o.ZID)
		}
	}
	if replacedNodes == 0 {
		t.Fatal("no replacements detected")
	}
}

func TestTLSLaunderingVisible(t *testing.T) {
	w, err := population.BuildTLSWorld(testSeed, tlsScale)
	if err != nil {
		t.Fatal(err)
	}
	exp := &TLSExperiment{
		Client: w.Client, Geo: w.Geo, Trust: w.Trust,
		Targets: TargetsFromRegistry(w.Sites),
		Weights: w.Pool.CountryCounts(), Seed: testSeed,
		Now: w.Clock.Now,
	}
	ds, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// For laundering products (Kaspersky etc.), invalid sites come back
	// with chains that STILL fail the clean store (issuer isn't trusted) —
	// but crucially with the same issuer as valid-site spoofs. Check the
	// observable: replaced invalid-site chains exist and carry AV issuers.
	foundLaunderIssuer := false
	for _, o := range ds.Observations {
		truth := w.TruthFor(o.ZID)
		if truth.TLSProduct != "Kaspersky" && truth.TLSProduct != "Eset SSL Filter" {
			continue
		}
		for _, s := range o.Sites {
			if s.Class == SiteInvalid && s.Replaced && s.IssuerCN != "" {
				foundLaunderIssuer = true
			}
		}
	}
	if !foundLaunderIssuer {
		t.Skip("no laundering product sampled at this scale/seed")
	}
}

func TestMonitorExperimentEndToEnd(t *testing.T) {
	w, err := population.BuildMonitorWorld(testSeed, monScale)
	if err != nil {
		t.Fatal(err)
	}
	exp := &MonitorExperiment{
		Client: w.Client, Auth: w.Auth, Web: w.Web, Geo: w.Geo, Clock: w.Clock,
		Zone: population.Zone, Weights: w.Pool.CountryCounts(), Seed: testSeed,
		Watch: 24 * time.Hour,
	}
	w.Auth.SetFallback(ProbeRules(population.WebIP, geo.SuperProxyResolverEgress))
	ds, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Observations) == 0 {
		t.Fatal("no observations")
	}
	monitored, vpn, pre := 0, 0, 0
	orgs := map[string]int{}
	for _, o := range ds.Observations {
		truth := w.TruthFor(o.ZID)
		if o.Monitored() {
			monitored++
			if truth.MonitorProduct == "" {
				t.Fatalf("false positive monitoring on %s (unexpected from %v)", o.ZID, o.Unexpected[0].Src)
			}
			for _, u := range o.Unexpected {
				orgs[u.Org]++
				if u.Delay < 0 {
					pre++
				}
			}
		} else if truth.MonitorProduct != "" {
			t.Fatalf("missed monitor %q on %s", truth.MonitorProduct, o.ZID)
		}
		if o.ViaVPN {
			vpn++
			if truth.MonitorProduct != "AnchorFree" {
				t.Fatalf("VPN flag on non-AnchorFree node %s (%q)", o.ZID, truth.MonitorProduct)
			}
		}
	}
	rate := float64(monitored) / float64(len(ds.Observations))
	if rate < 0.010 || rate > 0.022 {
		t.Fatalf("monitored rate = %.4f, want ~0.015", rate)
	}
	if orgs["Trend Micro"] == 0 || orgs["TalkTalk"] == 0 {
		t.Fatalf("expected entities missing: %v", orgs)
	}
	if vpn == 0 {
		t.Error("no VPN-egress nodes observed")
	}
	if pre == 0 {
		t.Error("no pre-fetch (negative delay) requests observed")
	}
}

// TestHTTPAndMonitorForgetProbeNames: once a small HTTP crawl and a small
// monitoring crawl are done, the authority's log holds nothing for any name
// either asked about — every session forgot its own when it ended — while
// QueryCount still counts every query those names drew.
func TestHTTPAndMonitorForgetProbeNames(t *testing.T) {
	session := func(i int) string { return fmt.Sprintf("s%08d", i) }
	t.Run("http", func(t *testing.T) {
		w, err := population.BuildHTTPWorld(testSeed, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		w.Auth.SetFallback(ProbeRules(population.WebIP, geo.SuperProxyResolverEgress))
		exp := &HTTPExperiment{
			Client: w.Client, Auth: w.Auth, Geo: w.Geo,
			Zone: population.Zone, Weights: w.Pool.CountryCounts(), Seed: testSeed,
			Crawl: CrawlConfig{MaxSessions: 60},
		}
		ds, err := exp.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= ds.Crawl.Sessions; i++ {
			for idx := range content.Kinds {
				host := fmt.Sprintf("%s%s-%d.%s", httpPrefix, session(i), idx, population.Zone)
				if q := w.Auth.QueriesFor(host); len(q) != 0 {
					t.Fatalf("%s is still logged: %+v", host, q)
				}
			}
		}
		if n := w.Auth.QueryCount(); len(ds.Observations) == 0 || n < len(ds.Observations) {
			t.Fatalf("%d queries counted for %d observations", n, len(ds.Observations))
		}
	})
	t.Run("monitor", func(t *testing.T) {
		w, err := population.BuildMonitorWorld(testSeed, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		w.Auth.SetFallback(ProbeRules(population.WebIP, geo.SuperProxyResolverEgress))
		exp := &MonitorExperiment{
			Client: w.Client, Auth: w.Auth, Web: w.Web, Geo: w.Geo, Clock: w.Clock,
			Zone: population.Zone, Weights: w.Pool.CountryCounts(), Seed: testSeed,
			Crawl: CrawlConfig{MaxSessions: 200}, Watch: 24 * time.Hour,
		}
		ds, err := exp.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= ds.Crawl.Sessions; i++ {
			host := monPrefix + session(i) + "." + population.Zone
			if q := w.Auth.QueriesFor(host); len(q) != 0 {
				t.Fatalf("%s is still logged: %+v", host, q)
			}
		}
		if n := w.Auth.QueryCount(); len(ds.Observations) == 0 || n < len(ds.Observations) {
			t.Fatalf("%d queries counted for %d observations", n, len(ds.Observations))
		}
	})
}

func TestOpenResolverScanBaseline(t *testing.T) {
	w, err := population.BuildDNSWorld(testSeed, dnsScale)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("scanning %d resolvers", len(w.ResolverDir))
	res := OpenResolverScan(w.Fabric, population.ClientIP, resolverAddrs(w), population.Zone)
	if res.Scanned == 0 || res.Open == 0 {
		t.Fatalf("scan = %+v", res)
	}
	// Every resolver in the directory is up and echoes the scanner's
	// question under its ID: none is lost to the answer match.
	if res.Unreachable != 0 {
		t.Fatalf("%d of %d resolvers counted unreachable", res.Unreachable, res.Scanned)
	}
	// Closed ISP resolvers refuse the scanner.
	if res.Refused == 0 {
		t.Fatal("no resolver refused the scanner; ISP resolvers should be closed")
	}
	// A minority of open resolvers hijack (~2% at full scale, §4.3.2
	// footnote 10; the named-group floor inflates the ratio at tiny test
	// scales).
	rate := res.HijackRate()
	if rate <= 0 || rate > 0.40 {
		t.Fatalf("open hijack rate = %.3f", rate)
	}
	// The blind spot: the scan's hijack count is far below what the in-use
	// methodology finds, because ISP resolvers are invisible to it.
	if res.Hijacking > res.Refused {
		t.Fatal("scan saw more hijackers than closed resolvers; blind spot not reproduced")
	}
}

// strayNet answers every scan query with a well-formed hijack-shaped reply
// to the name wrong was asked about: right ID, wrong question.
type strayNet struct{ wrong string }

func (s strayNet) ExchangeDNS(_, _ netip.Addr, query []byte) ([]byte, error) {
	q, err := dnswire.Unmarshal(query)
	if err != nil {
		return nil, err
	}
	r := dnswire.NewQuery(q.ID, s.wrong, dnswire.TypeA).Reply()
	r.Answers = append(r.Answers, dnswire.Record{Name: s.wrong, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60, A: population.WebIP})
	return r.Marshal()
}

// TestOpenResolverScanIgnoresStrayReplies: a reply to another name is no
// verdict on the scanned target, which counts as unreachable — except the
// one target whose scan name the stray reply happens to be about.
func TestOpenResolverScanIgnoresStrayReplies(t *testing.T) {
	targets := []netip.Addr{population.ClientIP, population.WebIP, population.AuthIP}
	res := OpenResolverScan(strayNet{wrong: "nx-scan-000001." + population.Zone}, population.ClientIP, targets, population.Zone)
	if res.Unreachable != 2 || res.Hijacking != 1 || res.Open != 1 {
		t.Fatalf("scan = %+v, want two unreachable and one hijacking", res)
	}
}

// resolverAddrs extracts the scan target list from a world's directory.
func resolverAddrs(w *population.World) []netip.Addr {
	out := make([]netip.Addr, len(w.ResolverDir))
	for i, e := range w.ResolverDir {
		out[i] = e.Addr
	}
	return out
}

func testRand() *rand.Rand { return simnet.NewRand(99) }

func TestSMTPExtensionEndToEnd(t *testing.T) {
	w, err := population.BuildSMTPWorld(testSeed, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	exp := &SMTPExperiment{
		Client: closesOnce(t, w.Client), Geo: w.Geo, Weights: w.Pool.CountryCounts(),
		Seed: testSeed, MailIP: population.MailIP, MailHost: population.MailHost,
	}
	ds, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Observations) == 0 {
		t.Fatal("no observations")
	}
	blocked, stripped, clean := 0, 0, 0
	for _, o := range ds.Observations {
		truth := w.TruthFor(o.ZID)
		switch {
		case o.Blocked:
			blocked++
			if truth.HTTPModifier != "smtp:port25-blocked" {
				t.Fatalf("false blocked verdict on %s (%q)", o.ZID, truth.HTTPModifier)
			}
		case !o.StartTLS:
			stripped++
			if truth.HTTPModifier != "smtp:starttls-stripped" {
				t.Fatalf("false stripped verdict on %s (%q)", o.ZID, truth.HTTPModifier)
			}
		default:
			clean++
			if truth.HTTPModifier != "" {
				t.Fatalf("missed violation %q on %s", truth.HTTPModifier, o.ZID)
			}
			if o.Banner == "" {
				t.Fatalf("clean node %s with empty banner", o.ZID)
			}
		}
	}
	if blocked == 0 || stripped == 0 || clean == 0 {
		t.Fatalf("blocked=%d stripped=%d clean=%d", blocked, stripped, clean)
	}
	blockedRate := float64(blocked) / float64(len(ds.Observations))
	if blockedRate < 0.08 || blockedRate > 0.16 {
		t.Fatalf("blocked rate = %.3f, want ~0.12", blockedRate)
	}
}

func TestSMTPAgainstFaithful443OnlyProxy(t *testing.T) {
	// Against the Luminati-faithful configuration (CONNECT to 443 only),
	// every SMTP probe must fail at the proxy — the reason the paper calls
	// this future work.
	w, err := population.BuildSMTPWorld(testSeed, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	w.Super.AnyPortConnect = false
	exp := &SMTPExperiment{
		Client: closesOnce(t, w.Client), Geo: w.Geo, Weights: w.Pool.CountryCounts(),
		Seed: testSeed, MailIP: population.MailIP, MailHost: population.MailHost,
		Crawl: CrawlConfig{MaxSessions: 50},
	}
	ds, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Observations) != 0 {
		t.Fatalf("%d probes succeeded through a 443-only proxy", len(ds.Observations))
	}
	if ds.Failures == 0 {
		t.Fatal("no failures recorded")
	}
}

func TestLongitudinalDNSEvolution(t *testing.T) {
	w, err := population.BuildDNSWorld(testSeed, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	exp := &DNSExperiment{
		Client: w.Client, Auth: w.Auth, Web: w.Web, Geo: w.Geo,
		Zone: population.Zone, Weights: w.Pool.CountryCounts(), Seed: testSeed,
	}
	w.Auth.SetFallback(ProbeRules(population.WebIP, geo.SuperProxyResolverEgress))
	long := &LongitudinalDNS{
		Experiment: exp, Clock: w.Clock, Waves: 3,
		BetweenWaves: func(wave int) {
			if wave == 1 {
				// A big hijacker retires between the first two waves.
				if n := w.SetOrgHijack("talktalk-gb", nil); n == 0 {
					t.Fatal("no TalkTalk resolvers to flip")
				}
				w.SetOrgHijack("verizon-us", nil)
				w.SetOrgHijack("tmnet-my", nil)
			}
		},
	}
	waves, err := long.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(waves) != 3 {
		t.Fatalf("waves = %d", len(waves))
	}
	// The per-wave seed and zone live on each wave's copy of the driver.
	if exp.Seed != testSeed || exp.Zone != population.Zone {
		t.Fatalf("Run mutated its caller's experiment: seed %d, zone %q", exp.Seed, exp.Zone)
	}
	for _, wv := range waves {
		if wv.Measured == 0 {
			t.Fatalf("wave %d measured nothing", wv.Index)
		}
	}
	// Wave 0 sees the full hijacking population; waves 1-2 must show a
	// clearly lower rate after the retirements.
	if waves[1].HijackRate() >= waves[0].HijackRate()*0.92 {
		t.Fatalf("no visible decline: wave0 %.3f, wave1 %.3f",
			waves[0].HijackRate(), waves[1].HijackRate())
	}
	// And the rate stays down.
	if waves[2].HijackRate() >= waves[0].HijackRate()*0.92 {
		t.Fatalf("rate rebounded: wave2 %.3f", waves[2].HijackRate())
	}
	// Waves advance virtual time.
	if !waves[2].Start.After(waves[0].Start) {
		t.Fatal("clock did not advance between waves")
	}
}
