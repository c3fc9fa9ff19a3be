package dataset

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"github.com/tftproject/tft/internal/cert"
	"github.com/tftproject/tft/internal/core"
	"github.com/tftproject/tft/internal/geo"
)

// The release format as it was written before the observation types
// carried their own json tags: one mirrored record type per observation,
// a converter each way, and string helpers for addresses and key ids. It
// stays here as the oracle the tagged types are held to, byte for byte.

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

func dnsRecordOf(o *core.DNSObservation) any {
	return dnsRecord{
		ZID: o.ZID, NodeIP: addrString(o.NodeIP), ResolverIP: addrString(o.ResolverIP),
		ASN: uint32(o.ASN), Country: string(o.Country),
		SharedAnycast: o.SharedAnycast, Hijacked: o.Hijacked,
		LandingDomains: o.LandingDomains, LandingBody: o.LandingBody,
	}
}

func dnsObservationOf(rec *dnsRecord) *core.DNSObservation {
	return &core.DNSObservation{
		ZID: rec.ZID, NodeIP: parseAddr(rec.NodeIP), ResolverIP: parseAddr(rec.ResolverIP),
		ASN: geo.ASN(rec.ASN), Country: geo.CountryCode(rec.Country),
		SharedAnycast: rec.SharedAnycast, Hijacked: rec.Hijacked,
		LandingDomains: rec.LandingDomains, LandingBody: rec.LandingBody,
	}
}

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

func httpObservationOf(rec *httpRecord) *core.HTTPObservation {
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
}

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

func tlsObservationOf(rec *tlsRecord) *core.TLSObservation {
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
}

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

func monObservationOf(rec *monRecord) *core.MonObservation {
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
}

type smtpRecord struct {
	ZID      string `json:"zid"`
	NodeIP   string `json:"node_ip"`
	ASN      uint32 `json:"asn"`
	Country  string `json:"country"`
	Blocked  bool   `json:"blocked,omitempty"`
	StartTLS bool   `json:"starttls,omitempty"`
	Banner   string `json:"banner,omitempty"`
}

func smtpRecordOf(o *core.SMTPObservation) any {
	return smtpRecord{ZID: o.ZID, NodeIP: addrString(o.NodeIP),
		ASN: uint32(o.ASN), Country: string(o.Country),
		Blocked: o.Blocked, StartTLS: o.StartTLS, Banner: o.Banner}
}

func smtpObservationOf(rec *smtpRecord) *core.SMTPObservation {
	return &core.SMTPObservation{
		ZID: rec.ZID, NodeIP: parseAddr(rec.NodeIP),
		ASN: geo.ASN(rec.ASN), Country: geo.CountryCode(rec.Country),
		Blocked: rec.Blocked, StartTLS: rec.StartTLS, Banner: rec.Banner,
	}
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

// oracleWrite is the old batch writer: the header, then each observation
// through its converter.
func oracleWrite[T any](w io.Writer, experiment string, obs []T, conv func(T) any) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(Header{Format: FormatName, Version: Version, Experiment: experiment,
		Seed: 1, Scale: 0.5, Records: len(obs)}); err != nil {
		return err
	}
	for _, o := range obs {
		if err := enc.Encode(conv(o)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// oracleRead is the old reader: each line decodes into the record shape R,
// and conv makes the observation.
func oracleRead[R, T any](r io.Reader, experiment string, conv func(*R) T) ([]T, error) {
	h, dec, err := readHeader(r, experiment)
	if err != nil {
		return nil, err
	}
	var out []T
	for i := 0; h.Records < 0 || i < h.Records; i++ {
		var rec R
		if err := dec.Decode(&rec); err != nil {
			if h.Records < 0 && errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("dataset: record %d: %w", i, err)
		}
		out = append(out, conv(&rec))
	}
	return out, nil
}

// agreeWithOracle writes o through writeRecords and through the oracle: both
// fail with one error or write the same bytes, and those bytes read back
// the same through the exported reader and the oracle's.
func agreeWithOracle[T, R any](t *testing.T, experiment string, o T, toRecord func(T) any,
	read func(io.Reader) ([]T, error), fromRecord func(*R) T) {
	t.Helper()
	var got, want bytes.Buffer
	gotErr := writeRecords(&got, experiment, 1, 0.5, 1, []T{o})
	wantErr := oracleWrite(&want, experiment, []T{o}, toRecord)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: write error %v, oracle %v", experiment, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: wrote\n%s\noracle wrote\n%s", experiment, got.Bytes(), want.Bytes())
	}
	gotObs, err := read(bytes.NewReader(got.Bytes()))
	if err != nil {
		t.Fatalf("%s: reading %s: %v", experiment, got.Bytes(), err)
	}
	wantObs, err := oracleRead(bytes.NewReader(got.Bytes()), experiment, fromRecord)
	if err != nil {
		t.Fatalf("%s: oracle reading %s: %v", experiment, got.Bytes(), err)
	}
	if !reflect.DeepEqual(gotObs, wantObs) {
		t.Fatalf("%s: read %+v, oracle read %+v", experiment, gotObs[0], wantObs[0])
	}
}

// fuzzSource deals typed values out of fuzz input; an exhausted source
// deals zeros.
type fuzzSource struct{ b []byte }

func (s *fuzzSource) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *fuzzSource) take(n int) []byte {
	n = min(n, len(s.b))
	out := s.b[:n:n]
	s.b = s.b[n:]
	return out
}

func (s *fuzzSource) bool() bool { return s.byte()&1 == 1 }

func (s *fuzzSource) u64() uint64 {
	var v uint64
	for _, c := range s.take(8) {
		v = v<<8 | uint64(c)
	}
	return v
}

// str is up to 31 arbitrary bytes: invalid UTF-8, quotes and HTML included.
func (s *fuzzSource) str() string { return string(s.take(int(s.byte() % 32))) }

// blob is like str, nil when empty as the crawl leaves it.
func (s *fuzzSource) blob() []byte {
	if b := s.take(int(s.byte() % 32)); len(b) > 0 {
		return bytes.Clone(b)
	}
	return nil
}

// addr is the zero address, IPv4, IPv4-mapped IPv6, IPv6, or a zoned IPv6.
func (s *fuzzSource) addr() netip.Addr {
	var a16 [16]byte
	switch s.byte() % 5 {
	case 0:
		return netip.Addr{}
	case 1:
		var a4 [4]byte
		copy(a4[:], s.take(4))
		return netip.AddrFrom4(a4)
	case 2:
		a16[10], a16[11] = 0xff, 0xff
		copy(a16[12:], s.take(4))
		return netip.AddrFrom16(a16)
	case 3:
		copy(a16[:], s.take(16))
		return netip.AddrFrom16(a16)
	}
	copy(a16[:], s.take(16))
	return netip.AddrFrom16(a16).WithZone(s.str())
}

// ratio is ±Inf or NaN (which no JSON can carry) a quarter of the time,
// any float64 bit pattern otherwise.
func (s *fuzzSource) ratio() float64 {
	switch s.byte() % 8 {
	case 0:
		return math.Inf(1)
	case 1:
		return math.Inf(-1)
	case 2:
		return math.NaN()
	}
	return math.Float64frombits(s.u64())
}

func (s *fuzzSource) key() cert.KeyID {
	var k cert.KeyID
	copy(k[:], s.take(len(k)))
	return k
}

// when is an instant in UTC or a fixed offset: within two millennia of
// 1970 half the time, any year otherwise — those outside [0, 9999] are
// ones time.Time refuses to encode.
func (s *fuzzSource) when() time.Time {
	sec := int64(s.u64())
	if s.bool() {
		sec %= 1 << 36
	}
	t := time.Unix(sec, int64(s.u64()%1e9))
	if s.bool() {
		return t.In(time.FixedZone("", int(int16(s.u64()))*60))
	}
	return t.UTC()
}

// FuzzRecordsAgreeWithOracle: an observation of every experiment, built
// from fuzz input, is written by its json tags exactly as the mirrored
// record types wrote it, or fails with the same error.
func FuzzRecordsAgreeWithOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x01\x05z0001\x01\x5b\x01\x02\x03\x04\x03\x06\x06MYhtml\x01<a href=\"x\">\xff\xfe</a>"))
	f.Add(bytes.Repeat([]byte{0x04, 0xfe, 0x80, 0x21, 0xff, 0x0a}, 40))
	f.Add(bytes.Repeat([]byte{0x02, 0x07, 0xc0, 0xa8, 0x00, 0x01, 0x03}, 60))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &fuzzSource{b: data}
		id := func() (string, netip.Addr, geo.ASN, geo.CountryCode) {
			return s.str(), s.addr(), geo.ASN(s.u64()), geo.CountryCode(s.str())
		}

		dns := &core.DNSObservation{}
		dns.ZID, dns.NodeIP, dns.ASN, dns.Country = id()
		dns.ResolverIP, dns.SharedAnycast, dns.Hijacked = s.addr(), s.bool(), s.bool()
		for n := s.byte() % 3; n > 0; n-- {
			dns.LandingDomains = append(dns.LandingDomains, s.str())
		}
		dns.LandingBody = s.blob()
		agreeWithOracle(t, "dns", dns, dnsRecordOf, func(r io.Reader) ([]*core.DNSObservation, error) {
			_, ds, err := ReadDNS(r)
			return observationsOf(ds, err)
		}, dnsObservationOf)

		http := &core.HTTPObservation{}
		http.ZID, http.NodeIP, http.ASN, http.Country = id()
		for k := range http.Objects {
			http.Objects[k] = core.ObjectResult{Outcome: core.ObjectOutcome(int8(s.byte())),
				BodyLen: int(int64(s.u64())), Body: s.blob()}
			if s.bool() {
				http.Objects[k].ImageRatio = s.ratio()
			}
		}
		agreeWithOracle(t, "http", http, httpRecordOf, func(r io.Reader) ([]*core.HTTPObservation, error) {
			_, ds, err := ReadHTTP(r)
			if err != nil {
				return nil, err
			}
			return ds.Observations, nil
		}, httpObservationOf)

		// The crawl appends a site before it keeps an observation, so Sites
		// is nil or holds at least one result; an empty non-nil list would
		// write [] where the oracle wrote null.
		tls := &core.TLSObservation{}
		tls.ZID, tls.NodeIP, tls.ASN, tls.Country = id()
		tls.Phase2 = s.bool()
		for n := s.byte() % 4; n > 0; n-- {
			tls.Sites = append(tls.Sites, core.SiteResult{Host: s.str(), Class: core.SiteClass(int8(s.byte())),
				Replaced: s.bool(), IssuerCN: s.str(), LeafKey: s.key(), ChainValid: s.bool(), Err: s.str()})
		}
		agreeWithOracle(t, "tls", tls, tlsRecordOf, func(r io.Reader) ([]*core.TLSObservation, error) {
			_, ds, err := ReadTLS(r)
			if err != nil {
				return nil, err
			}
			return ds.Observations, nil
		}, tlsObservationOf)

		mon := &core.MonObservation{}
		mon.ZID, mon.NodeIP, mon.ASN, mon.Country = id()
		mon.Host, mon.RequestAt, mon.ViaVPN, mon.OwnSrc = s.str(), s.when(), s.bool(), s.addr()
		for n := s.byte() % 4; n > 0; n-- {
			mon.Unexpected = append(mon.Unexpected, core.UnexpectedRequest{Src: s.addr(), ASN: geo.ASN(s.u64()),
				Org: s.str(), Delay: time.Duration(s.u64()), UserAgent: s.str()})
		}
		agreeWithOracle(t, "monitor", mon, monRecordOf, func(r io.Reader) ([]*core.MonObservation, error) {
			_, ds, err := ReadMonitor(r)
			return observationsOf(ds, err)
		}, monObservationOf)

		smtp := &core.SMTPObservation{}
		smtp.ZID, smtp.NodeIP, smtp.ASN, smtp.Country = id()
		smtp.Blocked, smtp.StartTLS, smtp.Banner = s.bool(), s.bool(), s.str()
		agreeWithOracle(t, "smtp", smtp, smtpRecordOf, func(r io.Reader) ([]*core.SMTPObservation, error) {
			_, ds, err := ReadSMTP(r)
			return observationsOf(ds, err)
		}, smtpObservationOf)
	})
}

func observationsOf[T any](ds *core.Dataset[T], err error) ([]T, error) {
	if err != nil {
		return nil, err
	}
	return ds.Observations, nil
}
