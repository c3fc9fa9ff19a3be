package middlebox

import (
	"bytes"
	"crypto/sha256"
	"math/rand/v2"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tftproject/tft/internal/cert"
	"github.com/tftproject/tft/internal/content"
	"github.com/tftproject/tft/internal/dnswire"
	"github.com/tftproject/tft/internal/httpwire"
	"github.com/tftproject/tft/internal/simnet"
)

var (
	epoch     = time.Date(2016, 4, 14, 0, 0, 0, 0, time.UTC)
	landingIP = netip.MustParseAddr("203.0.113.80")
)

func htmlResp() *httpwire.Response {
	resp := httpwire.NewResponse(200, content.Object(content.KindHTML))
	resp.Header.Set("Content-Type", "text/html; charset=utf-8")
	return resp
}

func imageResp() *httpwire.Response {
	resp := httpwire.NewResponse(200, content.Object(content.KindImage))
	resp.Header.Set("Content-Type", "image/jpeg")
	return resp
}

func TestLandingPageSharedAppliance(t *testing.T) {
	a := LandingSpec{Operator: "Verizon", RedirectURL: "http://searchassist.verizon.com/main", SharedAppliance: true}
	b := LandingSpec{Operator: "Cox Communications", RedirectURL: "http://finder.cox.net/", SharedAppliance: true}
	pa, pb := a.Render(), b.Render()
	if !bytes.Contains(pa, []byte(SharedRedirectJS)) || !bytes.Contains(pb, []byte(SharedRedirectJS)) {
		t.Fatal("shared appliance pages missing common JS block")
	}
	doms := content.ExtractDomains(pa)
	if len(doms) != 1 || doms[0] != "searchassist.verizon.com" {
		t.Fatalf("domains = %v", doms)
	}
}

func TestLandingPageTagline(t *testing.T) {
	p := LandingSpec{
		Operator: "TMnet", RedirectURL: "http://midascdn.nervesis.com/land",
		Tagline: "We turn users' typing errors into your advertising advantage", AdCount: 3,
	}.Render()
	if !bytes.Contains(p, []byte("advertising advantage")) {
		t.Fatal("tagline missing")
	}
	if got := content.ExtractDomains(p); len(got) != 1 || got[0] != "midascdn.nervesis.com" {
		t.Fatalf("domains = %v", got)
	}
}

func TestPathNXLandingRewrites(t *testing.T) {
	nx := dnswire.Answer{RCode: dnswire.RCodeNXDomain}
	p := &Path{NXLanding: landingIP}
	if got, want := p.ApplyDNS(nx), (dnswire.Answer{RCode: dnswire.RCodeSuccess, A: landingIP, TTL: 60}); got != want {
		t.Fatalf("NXDOMAIN became %+v, want %+v", got, want)
	}
	// Any other answer passes through untouched.
	for _, ans := range []dnswire.Answer{
		{RCode: dnswire.RCodeSuccess, A: netip.MustParseAddr("198.51.100.10"), TTL: 5},
		{RCode: dnswire.RCodeServFail},
	} {
		if got := p.ApplyDNS(ans); got != ans {
			t.Fatalf("%+v became %+v", ans, got)
		}
	}
	// The zero address is an honest path.
	if got := (&Path{}).ApplyDNS(nx); got != nx {
		t.Fatalf("honest path answered %+v", got)
	}
}

func TestHTMLInjectorURL(t *testing.T) {
	in := HTMLInjector{Product: "cloudfront-injector", Signature: "d36mw5gp02ykm5.cloudfront.net", SignatureIsURL: true}
	orig := content.Object(content.KindHTML)
	resp := in.InterceptHTTP("d.example.net", "/object.html", htmlResp())
	if bytes.Equal(resp.Body, orig) {
		t.Fatal("no modification")
	}
	if !bytes.Contains(resp.Body, []byte("d36mw5gp02ykm5.cloudfront.net")) {
		t.Fatal("signature missing from injected page")
	}
	// Injection lands before </body> so the document stays well-formed.
	sig := bytes.Index(resp.Body, []byte("d36mw5gp02ykm5"))
	if end := bytes.Index(resp.Body, []byte("</body>")); sig > end {
		t.Fatalf("injection at %d after </body> at %d", sig, end)
	}
}

func TestHTMLInjectorKeywordAndPayload(t *testing.T) {
	in := HTMLInjector{Product: "oiasudoj-malware", Signature: "var oiasudoj;", ExtraBytes: 23 * 1024}
	resp := in.InterceptHTTP("d.example.net", "/object.html", htmlResp())
	if !bytes.Contains(resp.Body, []byte("var oiasudoj;")) {
		t.Fatal("keyword missing")
	}
	if len(resp.Body) < content.HTMLSize+23*1024 {
		t.Fatalf("payload not padded: %d bytes", len(resp.Body))
	}
}

func TestHTMLInjectorSkipsSmallObjects(t *testing.T) {
	in := HTMLInjector{Product: "x", Signature: "sig", SignatureIsURL: true}
	small := httpwire.NewResponse(200, []byte("<html><body>tiny</body></html>"))
	small.Header.Set("Content-Type", "text/html")
	if got := in.InterceptHTTP("h", "/p", small); bytes.Contains(got.Body, []byte("sig")) {
		t.Fatal("sub-1KB object was injected; §5.1 observed the opposite")
	}
}

func TestHTMLInjectorSkipsNonHTML(t *testing.T) {
	in := HTMLInjector{Product: "x", Signature: "sig", SignatureIsURL: true}
	img := imageResp()
	origLen := len(img.Body)
	if got := in.InterceptHTTP("h", "/object.jpg", img); len(got.Body) != origLen {
		t.Fatal("image was injected")
	}
}

// TestInterceptorsNeverWriteIntoTheBodyTheyAreHanded: the origin serves one
// shared copy of each object, so an interceptor that stored into resp.Body
// would corrupt it for the whole process. Every interceptor runs over every
// object, served under each content type, with the canonical bytes as the
// body; the canonical hashes must not move.
func TestInterceptorsNeverWriteIntoTheBodyTheyAreHanded(t *testing.T) {
	interceptors := []HTTPInterceptor{
		&HTMLInjector{Product: "url", Signature: "d36mw5gp02ykm5.cloudfront.net", SignatureIsURL: true},
		&HTMLInjector{Product: "keyword", Signature: "var oiasudoj;", ExtraBytes: 23 << 10},
		ContentFilter{Product: "netspark"},
		BlockPage{Product: "blocked", Message: "blocked"},
		BlockPage{Product: "empty", Empty: true},
		ImageCompressor{Product: "transcoder", Ratios: []float64{0.5, 0.34}},
	}
	want := make(map[content.Kind][32]byte)
	for _, k := range content.Kinds {
		want[k] = sha256.Sum256(content.Object(k))
	}
	for _, ic := range interceptors {
		for _, k := range content.Kinds {
			for _, served := range content.Kinds {
				resp := httpwire.NewResponse(200, content.Object(k))
				resp.Header.Set("Content-Type", served.ContentType())
				ic.InterceptHTTP("h.example.net", k.Path(), resp)
				if sha256.Sum256(content.Object(k)) != want[k] {
					t.Fatalf("%T wrote into the canonical %v object (served as %s)", ic, k, served.ContentType())
				}
			}
		}
	}
}

// TestInjectionDoesNotUseSpareCapacity: a page with no </body> takes the
// payload at its end, in a fresh slice, not in the caller's spare capacity.
func TestInjectionDoesNotUseSpareCapacity(t *testing.T) {
	buf := bytes.Repeat([]byte{'x'}, 64)
	page := buf[:10]
	out := injectBeforeBodyClose(page, []byte("PAYLOAD"))
	if string(out) != "xxxxxxxxxxPAYLOAD" {
		t.Fatalf("injected page = %q", out)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte{'x'}, 64)) {
		t.Fatalf("injection wrote into the caller's buffer: %q", buf)
	}
}

func TestContentFilterMetaTag(t *testing.T) {
	cf := ContentFilter{Product: "NetSpark"}
	resp := cf.InterceptHTTP("h", "/object.html", htmlResp())
	if !bytes.Contains(resp.Body, []byte("NetSparkQuiltingResult")) {
		t.Fatal("meta tag missing")
	}
	if !bytes.Contains(resp.Body, []byte("<head>\n<meta")) {
		t.Fatal("meta tag not inserted in head")
	}
}

func TestBlockPage(t *testing.T) {
	bp := BlockPage{Product: "quota", Message: "bandwidth exceeded"}
	resp := bp.InterceptHTTP("h", "/object.html", htmlResp())
	if resp.StatusCode != 403 || !bytes.Contains(resp.Body, []byte("bandwidth exceeded")) {
		t.Fatalf("resp = %d %q", resp.StatusCode, resp.Body)
	}
}

func TestBlockPageKindRestriction(t *testing.T) {
	bp := BlockPage{Product: "jsblock", Message: "blocked", Kinds: []string{"application/javascript"}, Empty: true}
	html := bp.InterceptHTTP("h", "/object.html", htmlResp())
	if html.StatusCode != 200 || len(html.Body) == 0 {
		t.Fatal("HTML was blocked despite kind restriction")
	}
	js := httpwire.NewResponse(200, content.Object(content.KindJS))
	js.Header.Set("Content-Type", "application/javascript")
	got := bp.InterceptHTTP("h", "/object.js", js)
	if len(got.Body) != 0 {
		t.Fatal("JS not replaced with empty response")
	}
}

func TestImageCompressorRatio(t *testing.T) {
	ic := ImageCompressor{Product: "Wind Hellas transcoder", Ratios: []float64{0.53}}
	orig := content.Object(content.KindImage)
	resp := ic.InterceptHTTP("d.example.net", "/object.jpg", imageResp())
	ratio := content.CompressionRatio(orig, resp.Body)
	if ratio > 0.58 || ratio < 0.48 {
		t.Fatalf("ratio = %.3f, want ~0.53", ratio)
	}
}

func TestImageCompressorMultipleRatios(t *testing.T) {
	ic := ImageCompressor{Product: "Vodacom", Ratios: []float64{0.35, 0.6}}
	orig := content.Object(content.KindImage)
	seen := make(map[int]bool)
	for i := 0; i < 40; i++ {
		resp := imageResp()
		path := "/object.jpg?" + strings.Repeat("x", i)
		got := ic.InterceptHTTP("d.example.net", path, resp)
		seen[len(got.Body)*10/len(orig)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("multi-ratio appliance produced one ratio bucket: %v", seen)
	}
}

func TestImageCompressorSkipsHTML(t *testing.T) {
	ic := ImageCompressor{Product: "x", Ratios: []float64{0.5}}
	resp := ic.InterceptHTTP("h", "/object.html", htmlResp())
	if !bytes.Equal(resp.Body, content.Object(content.KindHTML)) {
		t.Fatal("HTML was transcoded")
	}
}

func TestImageCompressorDeterministicPerURL(t *testing.T) {
	ic := ImageCompressor{Product: "x", Ratios: []float64{0.35, 0.6}}
	a := ic.InterceptHTTP("h", "/object.jpg", imageResp())
	b := ic.InterceptHTTP("h", "/object.jpg", imageResp())
	if !bytes.Equal(a.Body, b.Body) {
		t.Fatal("same URL transcoded differently")
	}
}

// mitm test fixtures ---------------------------------------------------------

func mitmWorld(t *testing.T) (*cert.Store, *cert.CA, []*cert.Certificate, []*cert.Certificate) {
	t.Helper()
	store, cas := cert.NewOSRootStore(epoch)
	site := cas[0].Issue(cert.Template{
		Subject:   cert.Name{CommonName: "www.bank.example"},
		NotBefore: epoch.Add(-time.Hour), NotAfter: epoch.Add(1000 * time.Hour),
		KeySeed: "bank",
	})
	valid := []*cert.Certificate{site, cas[0].Cert}
	selfCA := cert.NewRootCA(cert.Name{CommonName: "selfsigned.example"}, "ss", epoch.Add(-time.Hour), 1000*time.Hour)
	invalid := []*cert.Certificate{selfCA.Cert}
	return store, cas[0], valid, invalid
}

func avastSpec() ProductSpec {
	return ProductSpec{
		Product: "Avast", IssuerCN: "Avast Web/Mail Shield Root", Kind: "Anti-Virus/Security",
		ReuseKey: false, Invalid: InvalidDistinctIssuer,
	}
}

func kasperskySpec() ProductSpec {
	return ProductSpec{
		Product: "Kaspersky", IssuerCN: "Kaspersky Anti-Virus Personal Root", Kind: "Anti-Virus/Security",
		ReuseKey: true, Invalid: InvalidLaunder,
	}
}

func TestCertMITMReplacesValidChain(t *testing.T) {
	store, _, valid, _ := mitmWorld(t)
	pc := kasperskySpec().Build(epoch, store)
	m := pc.Instance("node-1", func() time.Time { return epoch })
	got := m.InterceptChain("www.bank.example", valid)
	if got == nil {
		t.Fatal("no replacement")
	}
	if got[0].Issuer.CommonName != "Kaspersky Anti-Virus Personal Root" {
		t.Fatalf("issuer = %q", got[0].Issuer.CommonName)
	}
	if err := store.Verify("www.bank.example", got, epoch); err == nil {
		t.Fatal("spoofed chain verified against clean store")
	}
}

func TestCertMITMKeyReuse(t *testing.T) {
	store, _, valid, _ := mitmWorld(t)
	pc := kasperskySpec().Build(epoch, store)
	m := pc.Instance("node-1", func() time.Time { return epoch })
	a := m.InterceptChain("www.bank.example", valid)
	b := m.InterceptChain("othersite.example", []*cert.Certificate{valid[0].Clone(), valid[1]})
	if a[0].PublicKey != b[0].PublicKey {
		t.Fatal("Kaspersky-style product minted distinct keys; §6.2 says same key per node")
	}
	// Different node, different key.
	m2 := pc.Instance("node-2", func() time.Time { return epoch })
	c := m2.InterceptChain("www.bank.example", []*cert.Certificate{valid[0].Clone(), valid[1]})
	if c[0].PublicKey == a[0].PublicKey {
		t.Fatal("key shared across nodes")
	}
}

func TestAvastUniqueKeys(t *testing.T) {
	store, _, valid, _ := mitmWorld(t)
	pc := avastSpec().Build(epoch, store)
	m := pc.Instance("node-1", func() time.Time { return epoch })
	a := m.InterceptChain("www.bank.example", valid)
	b := m.InterceptChain("www.bank.example", []*cert.Certificate{valid[0].Clone(), valid[1]})
	if a[0].PublicKey == b[0].PublicKey {
		t.Fatal("Avast reused a key; §6.2 says it is the exception")
	}
}

func TestInvalidLaunderMakesInvalidLookSpoofValid(t *testing.T) {
	store, _, _, invalid := mitmWorld(t)
	pc := kasperskySpec().Build(epoch, store)
	m := pc.Instance("node-1", func() time.Time { return epoch })
	got := m.InterceptChain("selfsigned.example", invalid)
	if got == nil {
		t.Fatal("laundering product skipped invalid site")
	}
	// Same issuer and key as for valid sites — the §6.2 signature of the
	// dangerous behaviour.
	valid := m.InterceptChain("www.bank.example", []*cert.Certificate{invalid[0]})
	if got[0].Issuer != valid[0].Issuer || got[0].PublicKey != valid[0].PublicKey {
		t.Fatal("laundered cert distinguishable from valid-site spoof")
	}
}

func TestInvalidDistinctIssuer(t *testing.T) {
	store, _, valid, invalid := mitmWorld(t)
	pc := avastSpec().Build(epoch, store)
	m := pc.Instance("node-1", func() time.Time { return epoch })
	gotValid := m.InterceptChain("www.bank.example", valid)
	gotInvalid := m.InterceptChain("selfsigned.example", invalid)
	if gotInvalid == nil || gotValid == nil {
		t.Fatal("missing replacement")
	}
	if gotInvalid[0].Issuer == gotValid[0].Issuer {
		t.Fatal("invalid-site replacement shares the trusted-looking issuer")
	}
	if !strings.Contains(gotInvalid[0].Issuer.CommonName, "untrusted") {
		t.Fatalf("issuer = %q", gotInvalid[0].Issuer.CommonName)
	}
}

func TestInvalidSkipPolicy(t *testing.T) {
	store, _, _, invalid := mitmWorld(t)
	spec := ProductSpec{Product: "OpenDNS", IssuerCN: "OpenDNS Root Certificate Authority",
		Kind: "Content filter", ReuseKey: true, Invalid: InvalidSkip,
		BlockList: []string{"blocked.example"}}
	pc := spec.Build(epoch, store)
	m := pc.Instance("node-1", func() time.Time { return epoch })
	if got := m.InterceptChain("selfsigned.example", invalid); got != nil {
		t.Fatal("OpenDNS-style filter replaced an invalid certificate")
	}
}

func TestBlockListRestriction(t *testing.T) {
	store, _, valid, _ := mitmWorld(t)
	spec := ProductSpec{Product: "OpenDNS", IssuerCN: "OpenDNS Root CA", Kind: "Content filter",
		ReuseKey: true, Invalid: InvalidSkip, BlockList: []string{"www.bank.example"}}
	pc := spec.Build(epoch, store)
	m := pc.Instance("n", func() time.Time { return epoch })
	if got := m.InterceptChain("www.bank.example", valid); got == nil {
		t.Fatal("blocked host not intercepted")
	}
	other := []*cert.Certificate{valid[0].Clone(), valid[1]}
	if got := m.InterceptChain("unblocked.example", other); got != nil {
		t.Fatal("unblocked host intercepted")
	}
}

func TestCopyFieldsMalware(t *testing.T) {
	store, _, valid, _ := mitmWorld(t)
	spec := ProductSpec{Product: "Cloudguard", IssuerCN: "Cloudguard.me", Kind: "Malware",
		ReuseKey: true, Invalid: InvalidLaunder, CopyFields: true}
	pc := spec.Build(epoch, store)
	m := pc.Instance("n", func() time.Time { return epoch })
	got := m.InterceptChain("www.bank.example", valid)
	if got[0].Subject != valid[0].Subject {
		t.Fatal("malware did not copy subject fields")
	}
	if !got[0].NotAfter.Equal(valid[0].NotAfter) {
		t.Fatal("malware did not copy validity window")
	}
}

// path composition -----------------------------------------------------------

func TestPathApplyOrderAndEmpty(t *testing.T) {
	var p Path
	clean := htmlResp()
	if resp := p.ApplyHTTP("h", "/object.html", clean); resp != clean {
		t.Fatal("the zero path did not hand the response through")
	}
	p.HTTP = []HTTPInterceptor{
		&HTMLInjector{Product: "a", Signature: "first-sig", SignatureIsURL: false},
		&HTMLInjector{Product: "b", Signature: "second-sig", SignatureIsURL: false},
	}
	resp := p.ApplyHTTP("h", "/object.html", htmlResp())
	i1 := bytes.Index(resp.Body, []byte("first-sig"))
	i2 := bytes.Index(resp.Body, []byte("second-sig"))
	if i1 < 0 || i2 < 0 {
		t.Fatal("an interceptor was skipped")
	}
}

func TestPathTLSFirstReplacementWins(t *testing.T) {
	store, _, valid, _ := mitmWorld(t)
	pcA := kasperskySpec().Build(epoch, store)
	pcB := avastSpec().Build(epoch, store)
	now := func() time.Time { return epoch }
	p := Path{TLS: []*CertMITM{pcA.Instance("n", now), pcB.Instance("n", now)}}
	got := p.ApplyTLS("www.bank.example", valid)
	if got[0].Issuer.CommonName != "Kaspersky Anti-Virus Personal Root" {
		t.Fatalf("issuer = %q (second interceptor won?)", got[0].Issuer.CommonName)
	}
}

// watcher ---------------------------------------------------------------------

type refetchRec struct {
	src   netip.Addr
	host  string
	delay time.Duration
}

// recordRefetches gives w the stream rng and a Refetch that records into
// the returned slice.
func recordRefetches(w *Watcher, rng *rand.Rand) *[]refetchRec {
	var recs []refetchRec
	w.Rand = rng
	w.Refetch = func(src netip.Addr, host, path string, delay time.Duration) {
		recs = append(recs, refetchRec{src, host, delay})
	}
	return &recs
}

func TestWatcherTwoRequestsBimodal(t *testing.T) {
	tm := &Watcher{
		Product: "TrendMicro",
		Requests: []RefetchSpec{
			{Delay: DelaySpec{Min: 12 * time.Second, Max: 120 * time.Second, LogUniform: true},
				Sources: []netip.Addr{netip.MustParseAddr("150.70.1.1")}},
			{Delay: DelaySpec{Min: 200 * time.Second, Max: 12500 * time.Second, LogUniform: true},
				Sources: []netip.Addr{netip.MustParseAddr("150.70.1.2")}},
		},
	}
	recs := recordRefetches(tm, simnet.NewRand(5))
	for i := 0; i < 50; i++ {
		tm.Observe("u1.example.net", "/")
	}
	if len(*recs) != 100 {
		t.Fatalf("refetches = %d, want 100", len(*recs))
	}
	for i, r := range *recs {
		if i%2 == 0 && (r.delay < 12*time.Second || r.delay > 120*time.Second) {
			t.Fatalf("first request delay %v out of band", r.delay)
		}
		if i%2 == 1 && (r.delay < 200*time.Second || r.delay > 12500*time.Second) {
			t.Fatalf("second request delay %v out of band", r.delay)
		}
	}
}

// TestWatcherConcurrentFetchesThroughOneNode: two crawl workers whose
// sessions land on the same node run Observe on its one Watcher at once; the
// node's random stream must not be drawn from by both (-race is the judge),
// and every fetch must still plan its full set of requests.
func TestWatcherConcurrentFetchesThroughOneNode(t *testing.T) {
	w := &Watcher{
		Product: "TrendMicro",
		Requests: []RefetchSpec{
			{Delay: DelaySpec{Min: 12 * time.Second, Max: 120 * time.Second, LogUniform: true},
				Sources: []netip.Addr{netip.MustParseAddr("150.70.1.1"), netip.MustParseAddr("150.70.1.3")}},
			{Delay: DelaySpec{Min: 200 * time.Second, Max: 12500 * time.Second},
				Sources: []netip.Addr{netip.MustParseAddr("150.70.1.2")}},
		},
	}
	var refetches atomic.Int64
	w.Rand = simnet.NewRand(7)
	w.Refetch = func(netip.Addr, string, string, time.Duration) { refetches.Add(1) }
	const workers, fetches = 4, 500
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < fetches; j++ {
				w.Observe("u1.example.net", "/")
			}
		}()
	}
	wg.Wait()
	if got := refetches.Load(); got != workers*fetches*2 {
		t.Fatalf("refetches = %d, want %d", got, workers*fetches*2)
	}
}

func TestWatcherPreFetch(t *testing.T) {
	bc := &Watcher{
		Product: "Bluecoat",
		Requests: []RefetchSpec{{
			Delay:        DelaySpec{Min: time.Second, Max: 30 * time.Second, LogUniform: true},
			Sources:      []netip.Addr{netip.MustParseAddr("199.19.250.1")},
			PreFetchProb: 0.83,
			Lead:         DelaySpec{Min: 100 * time.Millisecond, Max: 2 * time.Second},
		}},
	}
	recs := recordRefetches(bc, simnet.NewRand(6))
	for i := 0; i < 400; i++ {
		bc.Observe("u.example.net", "/")
	}
	neg := 0
	for _, r := range *recs {
		if r.delay < 0 {
			neg++
		}
	}
	frac := float64(neg) / float64(len(*recs))
	if frac < 0.75 || frac > 0.9 {
		t.Fatalf("pre-fetch fraction = %.2f, want ~0.83", frac)
	}
}

// TestPathObserveInnermostFirst: the monitor nearest the origin (the last
// in the path) sees the fetch first, as a fetch nested in each monitor's
// observation would reach it.
func TestPathObserveInnermostFirst(t *testing.T) {
	var order []string
	watcher := func(name string) *Watcher {
		return &Watcher{
			Product:  name,
			Requests: []RefetchSpec{{Sources: []netip.Addr{landingIP}}},
			Rand:     simnet.NewRand(8),
			Refetch: func(netip.Addr, string, string, time.Duration) {
				order = append(order, name)
			},
		}
	}
	p := Path{Monitors: []*Watcher{watcher("outer"), watcher("inner")}}
	p.Observe("h", "/")
	if want := []string{"inner", "outer"}; strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestDelaySpecBounds(t *testing.T) {
	rng := simnet.NewRand(9)
	specs := []DelaySpec{
		{Min: time.Second, Max: 10 * time.Second},
		{Min: 12 * time.Second, Max: 12500 * time.Second, LogUniform: true},
		{Min: 5 * time.Second, Max: 5 * time.Second},
	}
	for _, s := range specs {
		for i := 0; i < 200; i++ {
			d := s.Sample(rng)
			if d < s.Min || d > s.Max {
				t.Fatalf("sample %v outside [%v,%v]", d, s.Min, s.Max)
			}
		}
	}
}

func TestSTARTTLSStripperPortScope(t *testing.T) {
	if !MailPort(25) || !MailPort(587) {
		t.Fatal("mail ports not covered")
	}
	if MailPort(443) || MailPort(80) {
		t.Fatal("non-mail ports covered")
	}
}

func TestPathBlockedPortsAndStreamFor(t *testing.T) {
	p := &Path{
		BlockedPorts: []uint16{25},
		Stream:       []STARTTLSStripper{{Product: "x"}},
	}
	if !p.PortBlocked(25) || p.PortBlocked(443) {
		t.Fatal("blocked-port logic wrong")
	}
	if got := p.StreamFor(587); len(got) != 1 {
		t.Fatalf("StreamFor(587) = %d", len(got))
	}
	if got := p.StreamFor(443); len(got) != 0 {
		t.Fatalf("StreamFor(443) = %d", len(got))
	}
	var nilPath *Path
	if nilPath.PortBlocked(25) || nilPath.StreamFor(25) != nil {
		t.Fatal("nil path misbehaves")
	}
}

func TestCertMITMEmptyChainAndIssuerlessProduct(t *testing.T) {
	store, _, valid, _ := mitmWorld(t)
	spec := ProductSpec{Product: "Empty", IssuerCN: "", Kind: "N/A",
		ReuseKey: true, Invalid: InvalidSkip}
	pc := spec.Build(epoch, store)
	m := pc.Instance("n", func() time.Time { return epoch })
	if got := m.InterceptChain("www.bank.example", nil); got != nil {
		t.Fatal("empty chain intercepted")
	}
	got := m.InterceptChain("www.bank.example", valid)
	if got == nil || got[0].Issuer.CommonName != "" {
		t.Fatalf("issuerless product produced %+v", got)
	}
}
