package dataset

import (
	"bytes"
	"encoding/json"
	"io"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/tftproject/tft/internal/cert"
	"github.com/tftproject/tft/internal/core"
	"github.com/tftproject/tft/internal/geo"
)

func TestDNSRoundTrip(t *testing.T) {
	ds := &core.DNSDataset{Observations: []*core.DNSObservation{
		{ZID: "z1", NodeIP: netip.MustParseAddr("91.1.2.3"),
			ResolverIP: netip.MustParseAddr("91.1.0.53"), ASN: 64500, Country: "MY",
			Hijacked: true, LandingDomains: []string{"midascdn.nervesis.com"},
			LandingBody: []byte("<html>ads</html>")},
		{ZID: "z2", NodeIP: netip.MustParseAddr("91.1.2.4"), ASN: 64500, Country: "MY",
			SharedAnycast: true},
		{ZID: "z3", NodeIP: netip.MustParseAddr("10.0.0.1"),
			ResolverIP: netip.MustParseAddr("8.8.8.8"), ASN: 64501, Country: "DE"},
	}}
	var buf bytes.Buffer
	if err := WriteDNS(&buf, 42, 0.05, ds); err != nil {
		t.Fatal(err)
	}
	h, got, err := ReadDNS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Seed != 42 || h.Scale != 0.05 || h.Records != 3 || h.Experiment != "dns" {
		t.Fatalf("header = %+v", h)
	}
	if len(got.Observations) != 3 {
		t.Fatalf("records = %d", len(got.Observations))
	}
	for i := range ds.Observations {
		if !reflect.DeepEqual(ds.Observations[i], got.Observations[i]) {
			t.Fatalf("record %d: %+v != %+v", i, ds.Observations[i], got.Observations[i])
		}
	}
}

func TestHTTPRoundTrip(t *testing.T) {
	o := &core.HTTPObservation{ZID: "z1", NodeIP: netip.MustParseAddr("91.7.7.7"),
		ASN: 132199, Country: "PH"}
	o.Objects[0] = core.ObjectResult{Outcome: core.ObjModified, BodyLen: 9300, Body: []byte("<html>mod</html>")}
	o.Objects[1] = core.ObjectResult{Outcome: core.ObjModified, BodyLen: 20000, ImageRatio: 0.51}
	o.Objects[2] = core.ObjectResult{Outcome: core.ObjUnmodified, BodyLen: 258 * 1024}
	o.Objects[3] = core.ObjectResult{Outcome: core.ObjEmpty}
	ds := &core.HTTPDataset{}
	ds.Observations = []*core.HTTPObservation{o}
	var buf bytes.Buffer
	if err := WriteHTTP(&buf, 7, 0.1, ds); err != nil {
		t.Fatal(err)
	}
	_, got, err := ReadHTTP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds.Observations[0], got.Observations[0]) {
		t.Fatalf("%+v != %+v", ds.Observations[0], got.Observations[0])
	}
}

func TestTLSRoundTrip(t *testing.T) {
	key := cert.NewKeyPair("k").Public
	o := &core.TLSObservation{ZID: "z1", NodeIP: netip.MustParseAddr("91.8.8.8"),
		ASN: 64500, Country: "DE", Phase2: true,
		Sites: []core.SiteResult{
			{Host: "a.example", Class: core.SitePopular, Replaced: true,
				IssuerCN: "Avast Web/Mail Shield Root", LeafKey: key, ChainValid: false},
			{Host: "b.example", Class: core.SiteInvalid, Err: "handshake timeout"},
		}}
	ds := &core.TLSDataset{}
	ds.Observations = []*core.TLSObservation{o}
	var buf bytes.Buffer
	if err := WriteTLS(&buf, 7, 0.1, ds); err != nil {
		t.Fatal(err)
	}
	_, got, err := ReadTLS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g := got.Observations[0]
	if g.Sites[0].LeafKey != key {
		t.Fatalf("key = %v, want %v", g.Sites[0].LeafKey, key)
	}
	if !reflect.DeepEqual(o, g) {
		t.Fatalf("%+v != %+v", o, g)
	}
}

func TestMonitorRoundTrip(t *testing.T) {
	at := time.Date(2016, 4, 13, 10, 0, 0, 0, time.UTC)
	o := &core.MonObservation{ZID: "z1", NodeIP: netip.MustParseAddr("91.3.3.3"),
		ASN: 64500, Country: "GB", Host: "u-1.probe.example", RequestAt: at,
		ViaVPN: true, OwnSrc: netip.MustParseAddr("203.0.113.9"),
		Unexpected: []core.UnexpectedRequest{
			{Src: netip.MustParseAddr("150.70.1.1"), ASN: 100, Org: "Trend Micro",
				Delay: 42 * time.Second, UserAgent: "trend-micro-reputation-scanner/1.0"},
			{Src: netip.MustParseAddr("150.70.1.2"), ASN: 100, Org: "Trend Micro", Delay: -time.Second},
		}}
	ds := &core.MonDataset{Observations: []*core.MonObservation{o}}
	var buf bytes.Buffer
	if err := WriteMonitor(&buf, 9, 0.02, ds); err != nil {
		t.Fatal(err)
	}
	_, got, err := ReadMonitor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o, got.Observations[0]) {
		t.Fatalf("%+v != %+v", o, got.Observations[0])
	}
}

func TestHeaderValidation(t *testing.T) {
	if _, _, err := ReadDNS(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, _, err := ReadDNS(strings.NewReader(`{"format":"nope","version":1}`)); err == nil {
		t.Error("wrong format accepted")
	}
	if _, _, err := ReadDNS(strings.NewReader(`{"format":"tft-dataset","version":99,"experiment":"dns"}`)); err == nil {
		t.Error("future version accepted")
	}
	// Wrong experiment type.
	var buf bytes.Buffer
	WriteHTTP(&buf, 1, 1, &core.HTTPDataset{})
	if _, _, err := ReadDNS(&buf); err == nil {
		t.Error("http file read as dns")
	}
}

func TestTruncatedRecords(t *testing.T) {
	var buf bytes.Buffer
	ds := &core.DNSDataset{Observations: []*core.DNSObservation{
		{ZID: "z1", NodeIP: netip.MustParseAddr("1.2.3.4")},
		{ZID: "z2", NodeIP: netip.MustParseAddr("1.2.3.5")},
	}}
	if err := WriteDNS(&buf, 1, 1, ds); err != nil {
		t.Fatal(err)
	}
	full := buf.String()
	cut := full[:len(full)-20]
	if _, _, err := ReadDNS(strings.NewReader(cut)); err == nil {
		t.Error("truncated file accepted")
	}
}

// TestPeek: the header alone says what a file is — an empty dataset reads
// back its experiment and seed.
func TestPeek(t *testing.T) {
	var buf bytes.Buffer
	WriteMonitor(&buf, 5, 0.5, &core.MonDataset{})
	h, _, err := ReadMonitor(&buf)
	if err != nil || h.Experiment != "monitor" || h.Seed != 5 {
		t.Fatalf("header = %+v, %v", h, err)
	}
}

func TestGeoRoundTrip(t *testing.T) {
	reg := geo.NewRegistry()
	if err := geo.InstallGoogle(reg); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.AddOrg("tmnet", "TMnet", "MY"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.AddAS(4788, "tmnet", false); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.AddAS(4789, "tmnet", true); err != nil {
		t.Fatal(err)
	}
	var addrs []netip.Addr
	for i := 0; i < 40; i++ {
		a, err := reg.NextAddr(4788)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	var buf bytes.Buffer
	if err := WriteGeo(&buf, 77, 0.25, reg); err != nil {
		t.Fatal(err)
	}
	h, got, err := ReadGeo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Experiment != "geo" || h.Seed != 77 {
		t.Fatalf("header = %+v", h)
	}
	if got.NumASes() != reg.NumASes() || got.NumOrgs() != reg.NumOrgs() {
		t.Fatalf("sizes: %d/%d vs %d/%d", got.NumASes(), got.NumOrgs(), reg.NumASes(), reg.NumOrgs())
	}
	for _, a := range addrs {
		asn, ok := got.LookupAS(a)
		if !ok || asn != 4788 {
			t.Fatalf("lookup %v = AS%d,%v", a, asn, ok)
		}
	}
	if as, ok := got.ASInfo(4789); !ok || !as.Mobile {
		t.Fatal("mobile flag lost")
	}
	org, ok := got.Org(4788)
	if !ok || org.Name != "TMnet" || org.Country != "MY" {
		t.Fatalf("org = %+v", org)
	}
}

func TestGeoRejectsWrongFile(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteDNS(&buf, 1, 1, &core.DNSDataset{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadGeo(&buf); err == nil {
		t.Fatal("dns file read as geo")
	}
}

func TestSMTPRoundTrip(t *testing.T) {
	ds := &core.SMTPDataset{Observations: []*core.SMTPObservation{
		{ZID: "z1", NodeIP: netip.MustParseAddr("91.1.2.3"), ASN: 64500, Country: "US",
			StartTLS: true, Banner: "220 mail.tft-project.net ESMTP"},
		{ZID: "z2", NodeIP: netip.MustParseAddr("91.1.2.4"), ASN: 64501, Country: "IN",
			Blocked: true},
		{ZID: "z3", NodeIP: netip.MustParseAddr("91.1.2.5"), ASN: 64502, Country: "TN",
			StartTLS: false, Banner: "220 mail.tft-project.net ESMTP"},
	}}
	var buf bytes.Buffer
	if err := WriteSMTP(&buf, 7, 0.01, ds); err != nil {
		t.Fatal(err)
	}
	h, got, err := ReadSMTP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Seed != 7 || h.Scale != 0.01 || h.Records != 3 || h.Experiment != "smtp" {
		t.Fatalf("header = %+v", h)
	}
	if !reflect.DeepEqual(got.Observations, ds.Observations) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got.Observations[0], ds.Observations[0])
	}
}

// TestMalformedFieldsRejected: an address or key id that does not parse
// fails the read, naming the record, rather than reading as a zero value.
func TestMalformedFieldsRejected(t *testing.T) {
	files := map[string]string{}
	for _, c := range readerCases() {
		files[c.experiment] = c.file(t, 2)
	}
	read := map[string]func(io.Reader) error{
		"dns":     func(r io.Reader) error { _, _, err := ReadDNS(r); return err },
		"tls":     func(r io.Reader) error { _, _, err := ReadTLS(r); return err },
		"monitor": func(r io.Reader) error { _, _, err := ReadMonitor(r); return err },
	}
	key := cert.NewKeyPair("k").Public.String()
	for _, tc := range []struct{ experiment, good, bad, wantPrefix string }{
		{"dns", `"node_ip":"91.1.2.3"`, `"node_ip":"91.1.2.300"`, "dataset: record 0: "},
		{"dns", `"node_ip":"91.1.2.4"`, `"node_ip":"node"`, "dataset: record 1: "},
		{"dns", `"resolver_ip":"91.1.0.53"`, `"resolver_ip":"91.1.0"`, "dataset: record 0: "},
		{"monitor", `"own_src":"203.0.113.9"`, `"own_src":"203.0.113.9/32"`, "dataset: record 0: "},
		{"monitor", `"src":"150.70.1.2"`, `"src":"150.70.1.2:80"`, "dataset: record 0: "},
		{"tls", `"leaf_key":"` + key + `"`, `"leaf_key":"` + key[:30] + `"`, "dataset: record 0: "},
		{"tls", `"leaf_key":"` + key + `"`, `"leaf_key":"` + key[:30] + `zz"`, "dataset: record 0: "},
		{"tls", `"leaf_key":"00000000000000000000000000000000"`, `"leaf_key":""`, "dataset: record 0: "},
	} {
		file := strings.Replace(files[tc.experiment], tc.good, tc.bad, 1)
		if file == files[tc.experiment] {
			t.Fatalf("%s: fixture has no %s", tc.experiment, tc.good)
		}
		if err := read[tc.experiment](strings.NewReader(file)); err == nil || !strings.HasPrefix(err.Error(), tc.wantPrefix) {
			t.Errorf("%s with %s: err = %v, want %q...", tc.experiment, tc.bad, err, tc.wantPrefix)
		}
	}
}

// TestReleaseFieldSet pins what the release publishes: an observation with
// every field set writes exactly these keys (a nested record's keys follow
// its field's, after a dot). A field added to an observation reaches the
// release only by changing this list.
func TestReleaseFieldSet(t *testing.T) {
	id := []string{"zid", "node_ip", "asn", "country"}
	for _, tc := range []struct {
		experiment string
		write      func(*bytes.Buffer) error
		keys       []string
	}{
		{"dns", func(b *bytes.Buffer) error {
			return WriteDNS(b, 1, 1, &core.DNSDataset{Observations: []*core.DNSObservation{filled[core.DNSObservation]()}})
		}, append(id, "resolver_ip", "shared_anycast", "hijacked", "landing_domains", "landing_body")},
		{"http", func(b *bytes.Buffer) error {
			ds := &core.HTTPDataset{}
			ds.Observations = []*core.HTTPObservation{filled[core.HTTPObservation]()}
			return WriteHTTP(b, 1, 1, ds)
		}, append(id, "objects", "objects.outcome", "objects.body_len", "objects.body", "objects.image_ratio")},
		{"tls", func(b *bytes.Buffer) error {
			ds := &core.TLSDataset{}
			ds.Observations = []*core.TLSObservation{filled[core.TLSObservation]()}
			return WriteTLS(b, 1, 1, ds)
		}, append(id, "phase2", "sites", "sites.host", "sites.class", "sites.replaced", "sites.issuer_cn",
			"sites.leaf_key", "sites.chain_valid", "sites.err")},
		{"monitor", func(b *bytes.Buffer) error {
			return WriteMonitor(b, 1, 1, &core.MonDataset{Observations: []*core.MonObservation{filled[core.MonObservation]()}})
		}, append(id, "host", "request_at", "via_vpn", "own_src", "unexpected", "unexpected.src",
			"unexpected.asn", "unexpected.org", "unexpected.delay_ns", "unexpected.user_agent")},
		{"smtp", func(b *bytes.Buffer) error {
			return WriteSMTP(b, 1, 1, &core.SMTPDataset{Observations: []*core.SMTPObservation{filled[core.SMTPObservation]()}})
		}, append(id, "blocked", "starttls", "banner")},
	} {
		var buf bytes.Buffer
		if err := tc.write(&buf); err != nil {
			t.Fatalf("%s: %v", tc.experiment, err)
		}
		_, line, _ := strings.Cut(buf.String(), "\n")
		var rec any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("%s: %v", tc.experiment, err)
		}
		got := map[string]bool{}
		jsonKeys(rec, "", got)
		want := map[string]bool{}
		for _, k := range tc.keys {
			want[k] = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: release keys %v, want %v", tc.experiment, got, want)
		}
	}
}

// filled returns a T with every settable field non-zero, recursively.
func filled[T any]() *T {
	v := new(T)
	fill(reflect.ValueOf(v).Elem())
	return v
}

func fill(v reflect.Value) {
	switch x := v.Addr().Interface().(type) {
	case *netip.Addr:
		*x = netip.MustParseAddr("192.0.2.1")
		return
	case *time.Time:
		*x = time.Date(2016, 4, 13, 10, 0, 0, 0, time.UTC)
		return
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(0.5)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fill(v.Index(0))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				fill(v.Field(i))
			}
		}
	default:
		panic("fill: no value for " + v.Type().String())
	}
}

// jsonKeys collects every object key under v, nested keys after their
// parent's and a dot; list elements share their list's prefix.
func jsonKeys(v any, prefix string, into map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, x := range v {
			into[prefix+k] = true
			jsonKeys(x, prefix+k+".", into)
		}
	case []any:
		for _, x := range v {
			jsonKeys(x, prefix, into)
		}
	}
}
