package dataset

import (
	"bytes"
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

func TestParseKeyIDRoundTrip(t *testing.T) {
	k := cert.NewKeyPair("roundtrip").Public
	if got := parseKeyID(k.String()); got != k {
		t.Fatalf("parseKeyID(%q) = %v", k.String(), got)
	}
	if got := parseKeyID(""); got != (cert.KeyID{}) {
		t.Fatal("empty string not zero key")
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
