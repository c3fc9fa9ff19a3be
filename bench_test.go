package tft

// The benchmark harness regenerates every table and figure in the paper's
// evaluation (see DESIGN.md's experiment index). Each Benchmark{TableN,...}
// runs the corresponding experiment once (cached across benchmarks), then
// times table regeneration and reports the headline values as benchmark
// metrics. Run with:
//
//	go test -bench=. -benchmem
//
// Per-experiment bench scales are chosen so the whole suite completes in a
// few minutes; cmd/tft -scale 1.0 reproduces full paper scale.

import (
	"context"
	"fmt"
	"io"
	"net/netip"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/tftproject/tft/internal/analysis"
	"github.com/tftproject/tft/internal/cert"
	"github.com/tftproject/tft/internal/core"
	"github.com/tftproject/tft/internal/dataset"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/metrics"
	"github.com/tftproject/tft/internal/population"
	"github.com/tftproject/tft/internal/progress"
	"github.com/tftproject/tft/internal/simnet"
	"github.com/tftproject/tft/internal/tlssim"
)

// Bench scales per experiment (fractions of the paper's populations).
const (
	benchSeed      = 20160413
	benchDNSScale  = 0.03
	benchHTTPScale = 0.05
	benchTLSScale  = 0.005
	benchMonScale  = 0.02
)

var (
	benchOnce sync.Once
	benchRes  *Results
	benchErr  error
)

// benchResults runs the four experiments once for all table benchmarks.
func benchResults(b *testing.B) *Results {
	b.Helper()
	benchOnce.Do(func() {
		ctx := context.Background()
		var res Results
		if res.DNS, benchErr = RunDNS(ctx, Options{Seed: benchSeed, Scale: benchDNSScale}); benchErr != nil {
			return
		}
		if res.HTTP, benchErr = RunHTTP(ctx, Options{Seed: benchSeed, Scale: benchHTTPScale}); benchErr != nil {
			return
		}
		if res.TLS, benchErr = RunTLS(ctx, Options{Seed: benchSeed, Scale: benchTLSScale}); benchErr != nil {
			return
		}
		if res.Monitor, benchErr = RunMonitor(ctx, Options{Seed: benchSeed, Scale: benchMonScale}); benchErr != nil {
			return
		}
		benchRes = &res
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchRes
}

func logTable(b *testing.B, t *analysis.Table) {
	b.Helper()
	b.Logf("\n%s", t)
}

// BenchmarkTable2Dataset regenerates the per-experiment coverage table.
func BenchmarkTable2Dataset(b *testing.B) {
	res := benchResults(b)
	b.ResetTimer()
	var t *analysis.Table
	for i := 0; i < b.N; i++ {
		t = res.Overview()
	}
	b.StopTimer()
	logTable(b, t)
	b.ReportMetric(float64(res.DNS.Analysis.Summary().MeasuredNodes), "dns-nodes")
	b.ReportMetric(float64(res.HTTP.Analysis.Summary().MeasuredNodes), "http-nodes")
}

// BenchmarkTable3CountryHijack regenerates the top-hijacked-countries table.
func BenchmarkTable3CountryHijack(b *testing.B) {
	res := benchResults(b)
	b.ResetTimer()
	var t *analysis.Table
	for i := 0; i < b.N; i++ {
		_, t = res.DNS.Analysis.Table3(10)
	}
	b.StopTimer()
	logTable(b, t)
	b.ReportMetric(res.DNS.Analysis.Summary().HijackPct, "hijack-pct")
}

// BenchmarkTable4ISPResolvers regenerates the hijacking-ISP table.
func BenchmarkTable4ISPResolvers(b *testing.B) {
	res := benchResults(b)
	b.ResetTimer()
	var t *analysis.Table
	for i := 0; i < b.N; i++ {
		_, t = res.DNS.Analysis.Table4()
	}
	b.StopTimer()
	logTable(b, t)
	b.ReportMetric(float64(len(t.Rows)), "isp-rows")
}

// BenchmarkTable5GoogleDNSHijack regenerates the Google-DNS hijack-domain
// table.
func BenchmarkTable5GoogleDNSHijack(b *testing.B) {
	res := benchResults(b)
	b.ResetTimer()
	var t *analysis.Table
	for i := 0; i < b.N; i++ {
		_, t = res.DNS.Analysis.Table5()
	}
	b.StopTimer()
	logTable(b, t)
}

// BenchmarkPublicResolverAttribution regenerates the §4.3.2 public-resolver
// statistics.
func BenchmarkPublicResolverAttribution(b *testing.B) {
	res := benchResults(b)
	b.ResetTimer()
	var st analysis.PublicResolverStats
	for i := 0; i < b.N; i++ {
		st = res.DNS.Analysis.PublicResolvers()
	}
	b.StopTimer()
	b.Logf("public servers: %d, hijacking: %d (%d nodes), operators: %v",
		st.PublicServers, st.HijackingServers, st.HijackedNodes, st.Operators)
	b.ReportMetric(float64(st.HijackingServers), "hijacking-servers")
}

// BenchmarkDNSSummary regenerates the §4.2/§4.4 headline numbers.
func BenchmarkDNSSummary(b *testing.B) {
	res := benchResults(b)
	b.ResetTimer()
	var s analysis.DNSSummary
	for i := 0; i < b.N; i++ {
		s = res.DNS.Analysis.Summary()
	}
	b.StopTimer()
	b.Logf("measured %d nodes, %d resolvers, hijacked %.2f%%, attribution %v",
		s.MeasuredNodes, s.UniqueResolvers, s.HijackPct, s.Attribution)
	b.ReportMetric(s.HijackPct, "hijack-pct")
}

// BenchmarkTable6Injections regenerates the injected-JS signature table.
func BenchmarkTable6Injections(b *testing.B) {
	res := benchResults(b)
	b.ResetTimer()
	var t *analysis.Table
	for i := 0; i < b.N; i++ {
		_, t = res.HTTP.Analysis.Table6()
	}
	b.StopTimer()
	logTable(b, t)
}

// BenchmarkTable7ImageCompression regenerates the mobile-AS transcoding
// table.
func BenchmarkTable7ImageCompression(b *testing.B) {
	res := benchResults(b)
	b.ResetTimer()
	var t *analysis.Table
	for i := 0; i < b.N; i++ {
		_, t = res.HTTP.Analysis.Table7()
	}
	b.StopTimer()
	logTable(b, t)
}

// BenchmarkHTTPSummary regenerates the §5.2 headline numbers.
func BenchmarkHTTPSummary(b *testing.B) {
	res := benchResults(b)
	b.ResetTimer()
	var s analysis.HTTPSummary
	for i := 0; i < b.N; i++ {
		s = res.HTTP.Analysis.Summary()
	}
	b.StopTimer()
	b.Logf("measured %d: html %d (inj %d, block %d), img %d, js %d, css %d",
		s.MeasuredNodes, s.HTMLModified, s.HTMLInjected, s.HTMLBlockPage,
		s.ImageModified, s.JSReplaced, s.CSSReplaced)
	b.ReportMetric(100*float64(s.HTMLModified)/float64(s.MeasuredNodes), "html-mod-pct")
	b.ReportMetric(100*float64(s.ImageModified)/float64(s.MeasuredNodes), "img-mod-pct")
}

// BenchmarkTable8Issuers regenerates the replaced-certificate issuer table.
func BenchmarkTable8Issuers(b *testing.B) {
	res := benchResults(b)
	b.ResetTimer()
	var t *analysis.Table
	for i := 0; i < b.N; i++ {
		_, t = res.TLS.Analysis.Table8()
	}
	b.StopTimer()
	logTable(b, t)
}

// BenchmarkTLSSummary regenerates the §6.2 headline numbers.
func BenchmarkTLSSummary(b *testing.B) {
	res := benchResults(b)
	b.ResetTimer()
	var s analysis.TLSSummary
	for i := 0; i < b.N; i++ {
		s = res.TLS.Analysis.Summary()
	}
	b.StopTimer()
	b.Logf("measured %d, affected %d (%.2f%%), selective %d, high-AS share %.1f%%",
		s.MeasuredNodes, s.Affected, s.AffectedPct, s.SelectiveNodes, s.HighASShare)
	b.ReportMetric(s.AffectedPct, "affected-pct")
}

// BenchmarkTable9Monitors regenerates the monitoring-entity table.
func BenchmarkTable9Monitors(b *testing.B) {
	res := benchResults(b)
	b.ResetTimer()
	var t *analysis.Table
	for i := 0; i < b.N; i++ {
		_, t = res.Monitor.Analysis.Table9(6)
	}
	b.StopTimer()
	logTable(b, t)
}

// BenchmarkFigure5DelayCDF regenerates the delay-CDF quantile table.
func BenchmarkFigure5DelayCDF(b *testing.B) {
	res := benchResults(b)
	b.ResetTimer()
	var t *analysis.Table
	for i := 0; i < b.N; i++ {
		_, t = res.Monitor.Analysis.Figure5Table(6)
	}
	b.StopTimer()
	logTable(b, t)
}

// BenchmarkMonitorSummary regenerates the §7.2 headline numbers.
func BenchmarkMonitorSummary(b *testing.B) {
	res := benchResults(b)
	b.ResetTimer()
	var s analysis.MonSummary
	for i := 0; i < b.N; i++ {
		s = res.Monitor.Analysis.Summary()
	}
	b.StopTimer()
	b.Logf("measured %d, monitored %d (%.2f%%), %d IPs, %d AS groups",
		s.MeasuredNodes, s.Monitored, s.MonitoredPct, s.UniqueIPs, s.ASGroups)
	b.ReportMetric(s.MonitoredPct, "monitored-pct")
}

// BenchmarkReport regenerates the full paper-vs-measured comparison.
func BenchmarkReport(b *testing.B) {
	res := benchResults(b)
	b.ResetTimer()
	var t *analysis.Table
	for i := 0; i < b.N; i++ {
		t = res.Report()
	}
	b.StopTimer()
	logTable(b, t)
	holds := 0
	comps := res.Compare()
	for _, c := range comps {
		if c.Holds {
			holds++
		}
	}
	b.ReportMetric(float64(holds)/float64(len(comps)), "shape-holds-frac")
}

// --- full-pipeline benches (experiment execution cost) -----------------------

// BenchmarkDNSExperimentRun measures a full DNS crawl+probe at 0.5% scale.
func BenchmarkDNSExperimentRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run, err := RunDNS(context.Background(), Options{Seed: uint64(i + 1), Scale: 0.005})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(run.Dataset.Crawl.Sessions), "sessions")
	}
}

// BenchmarkHTTPExperimentRun measures a full HTTP crawl at 0.5% scale: the
// four §5.1 objects through every measured node, the byte-bound crawl.
func BenchmarkHTTPExperimentRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run, err := RunHTTP(context.Background(), Options{Seed: uint64(i + 1), Scale: 0.005})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(run.Dataset.Crawl.Sessions), "sessions")
	}
}

// BenchmarkTLSExperimentRun measures a full §6 crawl at 0.5% scale: three
// CONNECT tunnels per node, a certificate chain collected and verified
// through each, and the full 33-site scan behind every replaced one.
func BenchmarkTLSExperimentRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run, err := RunTLS(context.Background(), Options{Seed: uint64(i + 1), Scale: 0.005})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(run.Dataset.Crawl.Sessions), "sessions")
	}
}

// BenchmarkMonitorExperimentRun measures a monitoring crawl plus its 24
// virtual hours at 0.5% scale.
func BenchmarkMonitorExperimentRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run, err := RunMonitor(context.Background(), Options{Seed: uint64(i + 1), Scale: 0.005})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(run.Analysis.Summary().Monitored), "monitored")
	}
}

// BenchmarkCrawlWorkers reads what a second worker buys: the DNS crawl at 1%
// scale with one worker and with two, as sessions per wall second and
// process CPU (user+sys, collector included) per session. workers=2 over
// workers=1 in sessions/s is the scaling; the gap in cpu-us/session is what
// sharing one world costs. One iteration is a smoke test; a reading needs
// -benchtime=5x -count=6.
func BenchmarkCrawlWorkers(b *testing.B) {
	cpuSeconds := func() float64 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			b.Fatal(err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var sessions int64
			cpu0 := cpuSeconds()
			for i := 0; i < b.N; i++ {
				run, err := RunDNS(context.Background(), Options{Seed: benchSeed, Scale: 0.01, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				sessions += run.Manifest().Sessions
			}
			cpu := cpuSeconds() - cpu0
			b.ReportMetric(float64(sessions)/b.Elapsed().Seconds(), "sessions/s")
			b.ReportMetric(cpu*1e6/float64(sessions), "cpu-us/session")
		})
	}
}

// --- ablations ----------------------------------------------------------------

// BenchmarkAblationObjectSize reproduces §5.1's motivation: sub-1KB objects
// see far less modification than the 9KB object through the same nodes.
func BenchmarkAblationObjectSize(b *testing.B) {
	w, err := population.BuildHTTPWorld(benchSeed, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	w.Auth.SetFallback(core.ProbeRules(population.WebIP, geo.SuperProxyResolverEgress))
	b.ResetTimer()
	var res core.ObjectSizeResult
	for i := 0; i < b.N; i++ {
		ab := &core.ObjectSizeAblation{
			Client: w.Client, Zone: population.Zone,
			Weights: w.Pool.CountryCounts(), Seed: benchSeed + uint64(i), Samples: 400,
		}
		var err error
		res, err = ab.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Logf("tiny(<1KB) modified %.2f%% vs full(9KB) modified %.2f%% over %d nodes",
		100*res.TinyRate(), 100*res.FullRate(), res.Nodes)
	b.ReportMetric(100*res.TinyRate(), "tiny-mod-pct")
	b.ReportMetric(100*res.FullRate(), "full-mod-pct")
	if res.TinyRate() >= res.FullRate() && res.FullModified > 0 {
		b.Errorf("object-size effect absent: tiny %.3f >= full %.3f", res.TinyRate(), res.FullRate())
	}
}

// BenchmarkAblationTwoPhaseTLS compares the two-phase scan against always
// scanning all 33 sites: same detections, far fewer tunnels.
func BenchmarkAblationTwoPhaseTLS(b *testing.B) {
	w, err := population.BuildTLSWorld(benchSeed, 0.003)
	if err != nil {
		b.Fatal(err)
	}
	run := func(full bool, seed uint64) *core.TLSDataset {
		exp := &core.TLSExperiment{
			Client: w.Client, Geo: w.Geo, Trust: w.Trust,
			Targets: core.TargetsFromRegistry(w.Sites),
			Weights: w.Pool.CountryCounts(), Seed: seed,
			Now: w.Clock.Now, AlwaysFullScan: full,
		}
		ds, err := exp.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		return ds
	}
	b.ResetTimer()
	var two, full *core.TLSDataset
	for i := 0; i < b.N; i++ {
		two = run(false, benchSeed)
		full = run(true, benchSeed)
	}
	b.StopTimer()
	affected := func(ds *core.TLSDataset) int {
		n := 0
		for _, o := range ds.Observations {
			if o.AnyReplaced() {
				n++
			}
		}
		return n
	}
	b.Logf("two-phase: %d probes, %d affected; always-full: %d probes, %d affected",
		two.Probes, affected(two), full.Probes, affected(full))
	b.ReportMetric(float64(full.Probes)/float64(two.Probes), "probe-savings-x")
	if two.Probes >= full.Probes {
		b.Error("two-phase scan did not save tunnels")
	}
}

// BenchmarkAblationASSampling compares 3-per-AS sampling against exhaustive
// measurement: similar AS-level detections at a fraction of the bandwidth.
func BenchmarkAblationASSampling(b *testing.B) {
	w, err := population.BuildHTTPWorld(benchSeed, 0.03)
	if err != nil {
		b.Fatal(err)
	}
	run := func(quota int) *core.HTTPDataset {
		exp := &core.HTTPExperiment{
			Client: w.Client, Auth: w.Auth, Geo: w.Geo,
			Zone: population.Zone, Weights: w.Pool.CountryCounts(),
			Seed: benchSeed, PerASQuota: quota,
		}
		w.Auth.SetFallback(core.ProbeRules(population.WebIP, geo.SuperProxyResolverEgress))
		ds, err := exp.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		return ds
	}
	b.ResetTimer()
	var sampled, exhaustive *core.HTTPDataset
	for i := 0; i < b.N; i++ {
		sampled = run(3)
		exhaustive = run(1 << 30)
	}
	b.StopTimer()
	modASes := func(ds *core.HTTPDataset) int {
		set := map[uint32]bool{}
		for _, o := range ds.Observations {
			if o.AnyModified() {
				set[uint32(o.ASN)] = true
			}
		}
		return len(set)
	}
	b.Logf("sampled: %d measured (%d skipped), %d modified ASes; exhaustive: %d measured, %d modified ASes",
		len(sampled.Observations), sampled.SkippedQuota, modASes(sampled),
		len(exhaustive.Observations), modASes(exhaustive))
	b.ReportMetric(float64(len(exhaustive.Observations))/float64(len(sampled.Observations)), "bandwidth-savings-x")
}

// BenchmarkBaselineOpenResolverScan contrasts open-resolver scanning with
// the paper's in-use-resolver measurement.
func BenchmarkBaselineOpenResolverScan(b *testing.B) {
	res := benchResults(b)
	w := res.DNS.World
	addrs := resolverAddrList(w)
	b.ResetTimer()
	var scan *core.ScanResult
	for i := 0; i < b.N; i++ {
		scan = core.OpenResolverScan(w.Fabric, population.ClientIP, addrs, population.Zone)
	}
	b.StopTimer()
	inUse := res.DNS.Analysis.Summary().Hijacked
	b.Logf("scan: %d targets, %d open, %d refused, %d hijacking (%.1f%% of open); in-use methodology found %d hijacked nodes",
		scan.Scanned, scan.Open, scan.Refused, scan.Hijacking, 100*scan.HijackRate(), inUse)
	b.ReportMetric(float64(scan.Hijacking), "scan-hijacking-servers")
	b.ReportMetric(float64(inUse), "in-use-hijacked-nodes")
	if scan.Refused == 0 {
		b.Error("no closed resolvers; the scan's blind spot is not being exercised")
	}
}

// BenchmarkAblationCrawlerStop compares the new-node-rate stop rule against
// a fixed session budget.
func BenchmarkAblationCrawlerStop(b *testing.B) {
	poolSize := 0
	{
		w, err := population.BuildDNSWorld(benchSeed, 0.005)
		if err != nil {
			b.Fatal(err)
		}
		poolSize = w.Pool.Len()
	}
	run := func(cfg core.CrawlConfig, seed uint64) core.Stats {
		r, err := RunDNS(context.Background(), Options{Seed: seed, Scale: 0.005, Crawl: cfg})
		if err != nil {
			b.Fatal(err)
		}
		return r.Dataset.Crawl
	}
	b.ResetTimer()
	var ruled, fixed core.Stats
	for i := 0; i < b.N; i++ {
		ruled = run(core.CrawlConfig{}, benchSeed)
		fixed = run(core.CrawlConfig{StopNewRate: 1e-9, MaxSessions: poolSize * 2}, benchSeed)
	}
	b.StopTimer()
	b.Logf("stop rule: %d sessions -> %d nodes (%.0f%% of pool %d); fixed 2x budget: %d sessions -> %d nodes",
		ruled.Sessions, ruled.UniqueNodes, 100*float64(ruled.UniqueNodes)/float64(poolSize), poolSize,
		fixed.Sessions, fixed.UniqueNodes)
	b.ReportMetric(float64(ruled.UniqueNodes)/float64(poolSize), "stoprule-coverage")
	b.ReportMetric(float64(fixed.UniqueNodes)/float64(poolSize), "fixed-coverage")
}

// BenchmarkExtensionSMTP runs the §3.4 future-work experiment: SMTP probes
// through an any-port tunnel, detecting port-25 blocking and STARTTLS
// stripping.
func BenchmarkExtensionSMTP(b *testing.B) {
	var run *SMTPRun
	for i := 0; i < b.N; i++ {
		var err error
		run, err = RunSMTP(context.Background(), Options{Seed: benchSeed, Scale: 0.02})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s := run.Analysis.Summary()
	_, t := run.Analysis.TableSMTP()
	logTable(b, t)
	b.Logf("probed %d nodes: %.1f%% port-25 blocked, %.2f%% STARTTLS-stripped (%d ASes)",
		s.MeasuredNodes, s.BlockedPct, s.StrippedPct, s.StripperASes)
	b.ReportMetric(s.BlockedPct, "blocked-pct")
	b.ReportMetric(s.StrippedPct, "stripped-pct")
	if s.Blocked == 0 || s.Stripped == 0 {
		b.Error("extension experiment detected nothing")
	}
}

// resolverAddrList flattens the world's resolver directory into scan
// targets.
func resolverAddrList(w *population.World) []netip.Addr {
	out := make([]netip.Addr, len(w.ResolverDir))
	for i, e := range w.ResolverDir {
		out[i] = e.Addr
	}
	return out
}

// BenchmarkAblationExactMatchVsValidation reproduces §6.1 footnote 20: CDN
// sites present different (equally valid) certificates across connections,
// so exact-matching popular sites would flag replacements where none exist;
// chain validation does not.
func BenchmarkAblationExactMatchVsValidation(b *testing.B) {
	w, err := population.BuildTLSWorld(benchSeed, 0.002)
	if err != nil {
		b.Fatal(err)
	}
	ccs := w.Sites.Countries()
	b.ResetTimer()
	var exactFP, validationFP, probed int
	for i := 0; i < b.N; i++ {
		exactFP, validationFP, probed = 0, 0, 0
		for _, cc := range ccs[:10] {
			for _, site := range w.Sites.Popular[cc] {
				first := collectDirect(b, w, site.Host, site.IP)
				second := collectDirect(b, w, site.Host, site.IP)
				probed++
				if first[0].Fingerprint() != second[0].Fingerprint() {
					// An exact-match detector would call this a replacement.
					exactFP++
				}
				now := w.Clock.Now()
				if w.Trust.Verify(site.Host, first, now) != nil || w.Trust.Verify(site.Host, second, now) != nil {
					validationFP++
				}
			}
		}
	}
	b.StopTimer()
	b.Logf("%d popular sites probed twice: exact-match false positives %d, validation false positives %d",
		probed, exactFP, validationFP)
	b.ReportMetric(float64(exactFP)/float64(probed), "exactmatch-fp-rate")
	b.ReportMetric(float64(validationFP)/float64(probed), "validation-fp-rate")
	if exactFP == 0 {
		b.Error("no CDN rotation observed; footnote-20 rationale not exercised")
	}
	if validationFP != 0 {
		b.Error("validation produced false positives on genuine chains")
	}
}

// collectDirect fetches a site's chain without the proxy (a clean vantage).
func collectDirect(b *testing.B, w *population.World, host string, ip netip.Addr) []*cert.Certificate {
	b.Helper()
	conn, err := w.Fabric.Dial(context.Background(), population.ClientIP, ip, 443)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	chain, err := tlssim.CollectChain(conn, host)
	if err != nil {
		b.Fatal(err)
	}
	return chain
}

// BenchmarkAblationBudget shows the §3.4 courtesy budget at work: the
// paper's 1 MB per-node cap comfortably fits the 309 KB four-object HTTP
// measurement, while a tight cap truncates it.
func BenchmarkAblationBudget(b *testing.B) {
	w, err := population.BuildHTTPWorld(benchSeed, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	run := func(maxBytes int64) (complete, truncated int) {
		exp := &core.HTTPExperiment{
			Client: w.Client, Auth: w.Auth, Geo: w.Geo,
			Zone: population.Zone, Weights: w.Pool.CountryCounts(),
			Seed: benchSeed, Budget: core.NewBudget(maxBytes),
			Crawl: core.CrawlConfig{MaxSessions: 600},
		}
		w.Auth.SetFallback(core.ProbeRules(population.WebIP, geo.SuperProxyResolverEgress))
		ds, err := exp.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range ds.Observations {
			missing := false
			for _, obj := range o.Objects {
				if obj.Outcome == core.ObjError {
					missing = true
				}
			}
			if missing {
				truncated++
			} else {
				complete++
			}
		}
		return complete, truncated
	}
	b.ResetTimer()
	var fullC, fullT, tightC, tightT int
	for i := 0; i < b.N; i++ {
		fullC, fullT = run(core.DefaultBudgetBytes)
		tightC, tightT = run(100 << 10)
	}
	b.StopTimer()
	b.Logf("1MB budget: %d complete / %d truncated; 100KB budget: %d complete / %d truncated",
		fullC, fullT, tightC, tightT)
	b.ReportMetric(float64(fullT), "truncated-at-1mb")
	b.ReportMetric(float64(tightT), "truncated-at-100kb")
	if fullT > fullC/10 {
		b.Error("the paper's 1MB budget truncated measurements")
	}
	if tightT == 0 {
		b.Error("tight budget truncated nothing; budget enforcement broken")
	}
}

// BenchmarkExtensionLongitudinal runs the §9 continuous-measurement
// scenario: four weekly waves against one world while large hijacking ISPs
// retire their appliances; the time series must decline.
func BenchmarkExtensionLongitudinal(b *testing.B) {
	var run *LongitudinalRun
	for i := 0; i < b.N; i++ {
		var err error
		run, err = RunLongitudinal(context.Background(), Options{Seed: benchSeed, Scale: 0.01}, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	logTable(b, run.Table())
	first := run.Waves[0].HijackRate()
	last := run.Waves[len(run.Waves)-1].HijackRate()
	b.ReportMetric(100*first, "wave0-hijack-pct")
	b.ReportMetric(100*last, "waveN-hijack-pct")
	if last >= first {
		b.Error("longitudinal decline not observed")
	}
}

// BenchmarkFullScaleDNS runs the §4 DNS experiment at the paper's full
// population (Scale=1.0) through the complete streaming pipeline: lazy
// world, crawl workers feeding per-shard sinks, per-shard
// analysis aggregates merged after the run, and per-shard streaming
// dataset writers — with in-memory dataset accumulation disabled, so peak
// heap is the pipeline's true working set. Alongside ns/op it reports the
// peak heap sampled during the crawl and the measured-node count as custom
// metrics on the benchmark line.
func BenchmarkFullScaleDNS(b *testing.B) {
	const workers = 8
	for i := 0; i < b.N; i++ {
		w, err := population.BuildDNSWorld(benchSeed, 1.0)
		if err != nil {
			b.Fatal(err)
		}
		shardAgg := make([]*analysis.DNSAnalysis, workers)
		shardWriters := make([]*dataset.DNSWriter, workers)
		for s := range shardAgg {
			shardAgg[s] = analysis.NewDNSAnalysis(analysis.Config{Scale: 1.0}, w.Geo)
			sw, err := dataset.NewDNSWriter(io.Discard, benchSeed, 1.0, dataset.StreamRecords)
			if err != nil {
				b.Fatal(err)
			}
			shardWriters[s] = sw
		}
		exp := &core.DNSExperiment{
			Client: w.Client, Auth: w.Auth, Web: w.Web, Geo: w.Geo,
			Zone: population.Zone, Weights: w.Pool.CountryCounts(),
			Seed:                benchSeed,
			DiscardObservations: true,
			Sink: func(shard int, o *core.DNSObservation) {
				shardAgg[shard].Observe(o)
				if err := shardWriters[shard].Write(o); err != nil {
					b.Error(err)
				}
			},
		}
		exp.Crawl.Workers = workers
		exp.Crawl.Metrics = metrics.NewRegistry()
		w.Auth.SetFallback(core.ProbeRules(population.WebIP, geo.SuperProxyResolverEgress))

		// The flight recorder doubles as the benchmark's heap sampler: the
		// tracker's watermarks record peak heap while the sampler drives
		// the 50ms cadence on the wall clock.
		tracker := progress.NewTracker()
		exp.Crawl.Progress = tracker
		sampler := &progress.Sampler{
			Tracker:  tracker,
			Clock:    simnet.Real{},
			Interval: 50 * time.Millisecond,
		}
		if err := sampler.Start(); err != nil {
			b.Fatal(err)
		}

		ds, err := exp.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if err := sampler.Stop(); err != nil {
			b.Fatal(err)
		}
		peak := tracker.CaptureWatermarks().PeakHeapBytes

		merged := shardAgg[0]
		for _, a := range shardAgg[1:] {
			merged.Merge(a)
		}
		merged.Finalize()
		for _, sw := range shardWriters {
			if err := sw.Close(); err != nil {
				b.Fatal(err)
			}
		}
		if len(ds.Observations) != 0 {
			b.Fatalf("DiscardObservations left %d observations in memory", len(ds.Observations))
		}
		sum := merged.Summary()
		if sum.MeasuredNodes == 0 {
			b.Fatal("no nodes measured at full scale")
		}

		b.ReportMetric(float64(peak)/(1<<20), "peak-heap-MB")
		b.ReportMetric(float64(sum.MeasuredNodes), "nodes")
	}
}
