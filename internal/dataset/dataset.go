// Package dataset serializes experiment observations to line-delimited
// JSON and back. The paper's fourth contribution is releasing analysis
// code and data (https://tft.ccs.neu.edu); this package is that release
// format: cmd/tft -dump writes the datasets a run produced, and
// cmd/analyze regenerates every table from the files alone, without
// re-running the measurement.
//
// Records deliberately contain only what the paper could publish: no
// request bodies beyond hijack landing pages, and node identity limited to
// zID/IP/AS/country.
package dataset

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"time"

	"github.com/tftproject/tft/internal/cert"
	"github.com/tftproject/tft/internal/core"
	"github.com/tftproject/tft/internal/geo"
)

// Header is the first line of every dataset file.
type Header struct {
	Format     string  `json:"format"` // "tft-dataset"
	Version    int     `json:"version"`
	Experiment string  `json:"experiment"` // dns|http|tls|monitor
	Seed       uint64  `json:"seed"`
	Scale      float64 `json:"scale"`
	Records    int     `json:"records"`
}

// FormatName identifies dataset files.
const FormatName = "tft-dataset"

// Version is the current format version.
const Version = 1

// dnsRecord is the JSON shape of a DNS observation.
type dnsRecord struct {
	ZID            string   `json:"zid"`
	NodeIP         string   `json:"node_ip"`
	ResolverIP     string   `json:"resolver_ip,omitempty"`
	ASN            uint32   `json:"asn"`
	Country        string   `json:"country"`
	SharedAnycast  bool     `json:"shared_anycast,omitempty"`
	Hijacked       bool     `json:"hijacked,omitempty"`
	LandingDomains []string `json:"landing_domains,omitempty"`
	LandingBody    []byte   `json:"landing_body,omitempty"`
}

// dnsRecordOf converts an observation to its serialized shape.
func dnsRecordOf(o *core.DNSObservation) any {
	return dnsRecord{
		ZID: o.ZID, NodeIP: addrString(o.NodeIP), ResolverIP: addrString(o.ResolverIP),
		ASN: uint32(o.ASN), Country: string(o.Country),
		SharedAnycast: o.SharedAnycast, Hijacked: o.Hijacked,
		LandingDomains: o.LandingDomains, LandingBody: o.LandingBody,
	}
}

// WriteDNS streams a DNS dataset.
func WriteDNS(w io.Writer, seed uint64, scale float64, ds *core.DNSDataset) error {
	sw, err := NewDNSWriter(w, seed, scale, len(ds.Observations))
	if err != nil {
		return err
	}
	return drain(sw, ds.Observations)
}

// ReadDNS loads a DNS dataset.
func ReadDNS(r io.Reader) (*Header, *core.DNSDataset, error) {
	return readRecords(r, "dns", func(rec *dnsRecord) *core.DNSObservation {
		return &core.DNSObservation{
			ZID: rec.ZID, NodeIP: parseAddr(rec.NodeIP), ResolverIP: parseAddr(rec.ResolverIP),
			ASN: geo.ASN(rec.ASN), Country: geo.CountryCode(rec.Country),
			SharedAnycast: rec.SharedAnycast, Hijacked: rec.Hijacked,
			LandingDomains: rec.LandingDomains, LandingBody: rec.LandingBody,
		}
	})
}

// httpRecord is the JSON shape of an HTTP observation.
type httpRecord struct {
	ZID     string       `json:"zid"`
	NodeIP  string       `json:"node_ip"`
	ASN     uint32       `json:"asn"`
	Country string       `json:"country"`
	Objects []httpObject `json:"objects"`
}

type httpObject struct {
	Outcome    int     `json:"outcome"`
	BodyLen    int     `json:"body_len,omitempty"`
	Body       []byte  `json:"body,omitempty"`
	ImageRatio float64 `json:"image_ratio,omitempty"`
}

// httpRecordOf converts an observation to its serialized shape.
func httpRecordOf(o *core.HTTPObservation) any {
	rec := httpRecord{ZID: o.ZID, NodeIP: addrString(o.NodeIP),
		ASN: uint32(o.ASN), Country: string(o.Country)}
	for _, obj := range o.Objects {
		rec.Objects = append(rec.Objects, httpObject{
			Outcome: int(obj.Outcome), BodyLen: obj.BodyLen,
			Body: obj.Body, ImageRatio: obj.ImageRatio,
		})
	}
	return rec
}

// WriteHTTP streams an HTTP dataset.
func WriteHTTP(w io.Writer, seed uint64, scale float64, ds *core.HTTPDataset) error {
	sw, err := NewHTTPWriter(w, seed, scale, len(ds.Observations))
	if err != nil {
		return err
	}
	return drain(sw, ds.Observations)
}

// ReadHTTP loads an HTTP dataset.
func ReadHTTP(r io.Reader) (*Header, *core.HTTPDataset, error) {
	h, ds, err := readRecords(r, "http", func(rec *httpRecord) *core.HTTPObservation {
		o := &core.HTTPObservation{ZID: rec.ZID, NodeIP: parseAddr(rec.NodeIP),
			ASN: geo.ASN(rec.ASN), Country: geo.CountryCode(rec.Country)}
		for k, obj := range rec.Objects {
			if k >= len(o.Objects) {
				break
			}
			o.Objects[k] = core.ObjectResult{
				Outcome: core.ObjectOutcome(obj.Outcome), BodyLen: obj.BodyLen,
				Body: obj.Body, ImageRatio: obj.ImageRatio,
			}
		}
		return o
	})
	if err != nil {
		return nil, nil, err
	}
	return h, &core.HTTPDataset{Dataset: *ds}, nil
}

// tlsRecord is the JSON shape of a TLS observation.
type tlsRecord struct {
	ZID     string      `json:"zid"`
	NodeIP  string      `json:"node_ip"`
	ASN     uint32      `json:"asn"`
	Country string      `json:"country"`
	Phase2  bool        `json:"phase2,omitempty"`
	Sites   []tlsResult `json:"sites"`
}

type tlsResult struct {
	Host       string `json:"host"`
	Class      int    `json:"class"`
	Replaced   bool   `json:"replaced,omitempty"`
	IssuerCN   string `json:"issuer_cn,omitempty"`
	LeafKey    string `json:"leaf_key,omitempty"`
	ChainValid bool   `json:"chain_valid,omitempty"`
	Err        string `json:"err,omitempty"`
}

// tlsRecordOf converts an observation to its serialized shape.
func tlsRecordOf(o *core.TLSObservation) any {
	rec := tlsRecord{ZID: o.ZID, NodeIP: addrString(o.NodeIP),
		ASN: uint32(o.ASN), Country: string(o.Country), Phase2: o.Phase2}
	for _, s := range o.Sites {
		rec.Sites = append(rec.Sites, tlsResult{
			Host: s.Host, Class: int(s.Class), Replaced: s.Replaced,
			IssuerCN: s.IssuerCN, LeafKey: s.LeafKey.String(),
			ChainValid: s.ChainValid, Err: s.Err,
		})
	}
	return rec
}

// WriteTLS streams a TLS dataset.
func WriteTLS(w io.Writer, seed uint64, scale float64, ds *core.TLSDataset) error {
	sw, err := NewTLSWriter(w, seed, scale, len(ds.Observations))
	if err != nil {
		return err
	}
	return drain(sw, ds.Observations)
}

// ReadTLS loads a TLS dataset.
func ReadTLS(r io.Reader) (*Header, *core.TLSDataset, error) {
	h, ds, err := readRecords(r, "tls", func(rec *tlsRecord) *core.TLSObservation {
		o := &core.TLSObservation{ZID: rec.ZID, NodeIP: parseAddr(rec.NodeIP),
			ASN: geo.ASN(rec.ASN), Country: geo.CountryCode(rec.Country), Phase2: rec.Phase2}
		for _, s := range rec.Sites {
			o.Sites = append(o.Sites, core.SiteResult{
				Host: s.Host, Class: core.SiteClass(s.Class), Replaced: s.Replaced,
				IssuerCN: s.IssuerCN, LeafKey: parseKeyID(s.LeafKey),
				ChainValid: s.ChainValid, Err: s.Err,
			})
		}
		return o
	})
	if err != nil {
		return nil, nil, err
	}
	return h, &core.TLSDataset{Dataset: *ds}, nil
}

// monRecord is the JSON shape of a monitoring observation.
type monRecord struct {
	ZID        string      `json:"zid"`
	NodeIP     string      `json:"node_ip"`
	ASN        uint32      `json:"asn"`
	Country    string      `json:"country"`
	Host       string      `json:"host"`
	RequestAt  time.Time   `json:"request_at"`
	ViaVPN     bool        `json:"via_vpn,omitempty"`
	OwnSrc     string      `json:"own_src,omitempty"`
	Unexpected []monSource `json:"unexpected,omitempty"`
}

type monSource struct {
	Src       string `json:"src"`
	ASN       uint32 `json:"asn"`
	Org       string `json:"org,omitempty"`
	DelayNS   int64  `json:"delay_ns"`
	UserAgent string `json:"user_agent,omitempty"`
}

// monRecordOf converts an observation to its serialized shape.
func monRecordOf(o *core.MonObservation) any {
	rec := monRecord{ZID: o.ZID, NodeIP: addrString(o.NodeIP),
		ASN: uint32(o.ASN), Country: string(o.Country),
		Host: o.Host, RequestAt: o.RequestAt, ViaVPN: o.ViaVPN, OwnSrc: addrString(o.OwnSrc)}
	for _, u := range o.Unexpected {
		rec.Unexpected = append(rec.Unexpected, monSource{
			Src: addrString(u.Src), ASN: uint32(u.ASN), Org: u.Org,
			DelayNS: int64(u.Delay), UserAgent: u.UserAgent,
		})
	}
	return rec
}

// WriteMonitor streams a monitoring dataset.
func WriteMonitor(w io.Writer, seed uint64, scale float64, ds *core.MonDataset) error {
	sw, err := NewMonitorWriter(w, seed, scale, len(ds.Observations))
	if err != nil {
		return err
	}
	return drain(sw, ds.Observations)
}

// ReadMonitor loads a monitoring dataset.
func ReadMonitor(r io.Reader) (*Header, *core.MonDataset, error) {
	return readRecords(r, "monitor", func(rec *monRecord) *core.MonObservation {
		o := &core.MonObservation{ZID: rec.ZID, NodeIP: parseAddr(rec.NodeIP),
			ASN: geo.ASN(rec.ASN), Country: geo.CountryCode(rec.Country),
			Host: rec.Host, RequestAt: rec.RequestAt, ViaVPN: rec.ViaVPN, OwnSrc: parseAddr(rec.OwnSrc)}
		for _, u := range rec.Unexpected {
			o.Unexpected = append(o.Unexpected, core.UnexpectedRequest{
				Src: parseAddr(u.Src), ASN: geo.ASN(u.ASN), Org: u.Org,
				Delay: time.Duration(u.DelayNS), UserAgent: u.UserAgent,
			})
		}
		return o
	})
}

// smtpRecord is the JSON shape of an SMTP observation.
type smtpRecord struct {
	ZID      string `json:"zid"`
	NodeIP   string `json:"node_ip"`
	ASN      uint32 `json:"asn"`
	Country  string `json:"country"`
	Blocked  bool   `json:"blocked,omitempty"`
	StartTLS bool   `json:"starttls,omitempty"`
	Banner   string `json:"banner,omitempty"`
}

// smtpRecordOf converts an observation to its serialized shape.
func smtpRecordOf(o *core.SMTPObservation) any {
	return smtpRecord{ZID: o.ZID, NodeIP: addrString(o.NodeIP),
		ASN: uint32(o.ASN), Country: string(o.Country),
		Blocked: o.Blocked, StartTLS: o.StartTLS, Banner: o.Banner}
}

// WriteSMTP streams an SMTP-extension dataset.
func WriteSMTP(w io.Writer, seed uint64, scale float64, ds *core.SMTPDataset) error {
	sw, err := NewSMTPWriter(w, seed, scale, len(ds.Observations))
	if err != nil {
		return err
	}
	return drain(sw, ds.Observations)
}

// ReadSMTP loads an SMTP-extension dataset.
func ReadSMTP(r io.Reader) (*Header, *core.SMTPDataset, error) {
	return readRecords(r, "smtp", func(rec *smtpRecord) *core.SMTPObservation {
		return &core.SMTPObservation{
			ZID: rec.ZID, NodeIP: parseAddr(rec.NodeIP),
			ASN: geo.ASN(rec.ASN), Country: geo.CountryCode(rec.Country),
			Blocked: rec.Blocked, StartTLS: rec.StartTLS, Banner: rec.Banner,
		}
	})
}

// readHeader decodes and validates the header line.
func readHeader(r io.Reader, wantExperiment string) (*Header, *json.Decoder, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var h Header
	if err := dec.Decode(&h); err != nil {
		return nil, nil, fmt.Errorf("dataset: reading header: %w", err)
	}
	if h.Format != FormatName {
		return nil, nil, fmt.Errorf("dataset: not a %s file (format %q)", FormatName, h.Format)
	}
	if h.Version != Version {
		return nil, nil, fmt.Errorf("dataset: unsupported version %d", h.Version)
	}
	if h.Experiment != wantExperiment {
		return nil, nil, fmt.Errorf("dataset: experiment %q, want %q", h.Experiment, wantExperiment)
	}
	if h.Records < StreamRecords {
		return nil, nil, fmt.Errorf("dataset: negative record count")
	}
	return &h, dec, nil
}

// readRecords is the read side's counterpart of Writer[T]: it validates the
// header, decodes record lines of shape R — exactly Header.Records of them,
// or to EOF for a streamed file — and collects what conv makes of each.
func readRecords[R, T any](r io.Reader, experiment string, conv func(*R) T) (*Header, *core.Dataset[T], error) {
	h, dec, err := readHeader(r, experiment)
	if err != nil {
		return nil, nil, err
	}
	ds := &core.Dataset[T]{}
	for i := 0; h.Records < 0 || i < h.Records; i++ {
		var rec R
		if err := dec.Decode(&rec); err != nil {
			if h.Records < 0 && errors.Is(err, io.EOF) {
				break
			}
			return nil, nil, fmt.Errorf("dataset: record %d: %w", i, err)
		}
		ds.Observations = append(ds.Observations, conv(&rec))
	}
	return h, ds, nil
}

// drain writes every observation through a streaming writer and closes it,
// preserving the first error encountered.
func drain[T any](sw *Writer[T], obs []T) error {
	for _, o := range obs {
		if err := sw.Write(o); err != nil {
			sw.Close()
			return err
		}
	}
	return sw.Close()
}

func addrString(a netip.Addr) string {
	if !a.IsValid() {
		return ""
	}
	return a.String()
}

func parseAddr(s string) netip.Addr {
	if s == "" {
		return netip.Addr{}
	}
	a, _ := netip.ParseAddr(s)
	return a
}

func parseKeyID(s string) cert.KeyID {
	var k cert.KeyID
	for i := 0; i+1 < len(s) && i/2 < len(k); i += 2 {
		k[i/2] = hexByte(s[i])<<4 | hexByte(s[i+1])
	}
	return k
}

func hexByte(c byte) byte {
	switch {
	case c >= '0' && c <= '9':
		return c - '0'
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10
	}
	return 0
}

// geoRecord lines carry one of the three snapshot row kinds.
type geoRecord struct {
	Org    *geo.SnapshotOrg    `json:"org,omitempty"`
	AS     *geo.SnapshotAS     `json:"as,omitempty"`
	Prefix *geo.SnapshotPrefix `json:"prefix,omitempty"`
}

// WriteGeo streams the registry snapshot — the release's RouteViews/CAIDA
// analogue, required to reproduce attribution from the raw observations.
func WriteGeo(w io.Writer, seed uint64, scale float64, reg *geo.Registry) error {
	orgs, ases, prefixes := reg.Snapshot()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(Header{Format: FormatName, Version: Version, Experiment: "geo",
		Seed: seed, Scale: scale, Records: len(orgs) + len(ases) + len(prefixes)}); err != nil {
		return err
	}
	for i := range orgs {
		if err := enc.Encode(geoRecord{Org: &orgs[i]}); err != nil {
			return err
		}
	}
	for i := range ases {
		if err := enc.Encode(geoRecord{AS: &ases[i]}); err != nil {
			return err
		}
	}
	for i := range prefixes {
		if err := enc.Encode(geoRecord{Prefix: &prefixes[i]}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadGeo rebuilds a registry from a snapshot file.
func ReadGeo(r io.Reader) (*Header, *geo.Registry, error) {
	h, dec, err := readHeader(r, "geo")
	if err != nil {
		return nil, nil, err
	}
	var orgs []geo.SnapshotOrg
	var ases []geo.SnapshotAS
	var prefixes []geo.SnapshotPrefix
	for i := 0; h.Records < 0 || i < h.Records; i++ {
		var rec geoRecord
		if err := dec.Decode(&rec); err != nil {
			if h.Records < 0 && errors.Is(err, io.EOF) {
				break
			}
			return nil, nil, fmt.Errorf("dataset: geo record %d: %w", i, err)
		}
		switch {
		case rec.Org != nil:
			orgs = append(orgs, *rec.Org)
		case rec.AS != nil:
			ases = append(ases, *rec.AS)
		case rec.Prefix != nil:
			prefixes = append(prefixes, *rec.Prefix)
		}
	}
	reg, err := geo.FromSnapshot(orgs, ases, prefixes)
	if err != nil {
		return nil, nil, err
	}
	return h, reg, nil
}
