package dataset

import (
	"bytes"
	"io"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/tftproject/tft/internal/cert"
	"github.com/tftproject/tft/internal/core"
)

// readerCase is one experiment's reader seen through an experiment-blind
// shape: file writes the two fixture observations under a header claiming
// the given record count, read returns what the exported reader made of a
// file.
type readerCase struct {
	experiment string
	file       func(t testing.TB, records int) string
	read       func(r io.Reader) (*Header, any, error)
	want       any
}

func readerCaseOf[T, D any](experiment string, obs []T,
	read func(io.Reader) (*Header, D, error), observations func(D) []T) readerCase {
	return readerCase{
		experiment: experiment,
		file: func(t testing.TB, records int) string {
			t.Helper()
			var buf bytes.Buffer
			if err := writeRecords(&buf, experiment, 3, 0.5, records, obs); err != nil {
				t.Fatal(err)
			}
			return buf.String()
		},
		read: func(r io.Reader) (*Header, any, error) {
			h, ds, err := read(r)
			if err != nil {
				return nil, nil, err
			}
			return h, observations(ds), nil
		},
		want: obs,
	}
}

func readerCases() []readerCase {
	ip := netip.MustParseAddr
	httpA := &core.HTTPObservation{ZID: "z1", NodeIP: ip("91.7.7.7"), ASN: 132199, Country: "PH"}
	httpA.Objects[0] = core.ObjectResult{Outcome: core.ObjModified, BodyLen: 9300, Body: []byte("<html>mod</html>")}
	httpA.Objects[1] = core.ObjectResult{Outcome: core.ObjModified, BodyLen: 20000, ImageRatio: 0.51}
	httpB := &core.HTTPObservation{ZID: "z2", NodeIP: ip("91.7.7.8"), ASN: 132199, Country: "PH"}
	httpB.Objects[3] = core.ObjectResult{Outcome: core.ObjEmpty}
	at := time.Date(2016, 4, 13, 10, 0, 0, 0, time.UTC)
	return []readerCase{
		readerCaseOf("dns", []*core.DNSObservation{
			{ZID: "z1", NodeIP: ip("91.1.2.3"), ResolverIP: ip("91.1.0.53"), ASN: 64500, Country: "MY",
				Hijacked: true, LandingDomains: []string{"midascdn.nervesis.com"}, LandingBody: []byte("<html>ads</html>")},
			{ZID: "z2", NodeIP: ip("91.1.2.4"), ASN: 64500, Country: "MY", SharedAnycast: true},
		}, ReadDNS, func(ds *core.DNSDataset) []*core.DNSObservation { return ds.Observations }),
		readerCaseOf("http", []*core.HTTPObservation{httpA, httpB},
			ReadHTTP, func(ds *core.HTTPDataset) []*core.HTTPObservation { return ds.Observations }),
		readerCaseOf("tls", []*core.TLSObservation{
			{ZID: "z1", NodeIP: ip("91.8.8.8"), ASN: 64500, Country: "DE", Phase2: true,
				Sites: []core.SiteResult{
					{Host: "a.example", Class: core.SitePopular, Replaced: true,
						IssuerCN: "Avast Web/Mail Shield Root", LeafKey: cert.NewKeyPair("k").Public},
					{Host: "b.example", Class: core.SiteInvalid, Err: "handshake timeout"},
				}},
			{ZID: "z2", NodeIP: ip("91.8.8.9"), ASN: 64501, Country: "RU",
				Sites: []core.SiteResult{{Host: "a.example", Class: core.SitePopular, ChainValid: true}}},
		}, ReadTLS, func(ds *core.TLSDataset) []*core.TLSObservation { return ds.Observations }),
		readerCaseOf("monitor", []*core.MonObservation{
			{ZID: "z1", NodeIP: ip("91.3.3.3"), ASN: 64500, Country: "GB", Host: "u-1.probe.example",
				RequestAt: at, ViaVPN: true, OwnSrc: ip("203.0.113.9"),
				Unexpected: []core.UnexpectedRequest{
					{Src: ip("150.70.1.1"), ASN: 100, Org: "Trend Micro", Delay: 42 * time.Second,
						UserAgent: "trend-micro-reputation-scanner/1.0"},
					{Src: ip("150.70.1.2"), ASN: 100, Org: "Trend Micro", Delay: -time.Second},
				}},
			{ZID: "z2", NodeIP: ip("91.3.3.4"), ASN: 64500, Country: "GB", Host: "u-2.probe.example", RequestAt: at},
		}, ReadMonitor, func(ds *core.MonDataset) []*core.MonObservation { return ds.Observations }),
		readerCaseOf("smtp", []*core.SMTPObservation{
			{ZID: "z1", NodeIP: ip("91.1.2.3"), ASN: 64500, Country: "US", StartTLS: true,
				Banner: "220 mail.tft-project.net ESMTP"},
			{ZID: "z2", NodeIP: ip("91.1.2.4"), ASN: 64501, Country: "IN", Blocked: true},
		}, ReadSMTP, func(ds *core.SMTPDataset) []*core.SMTPObservation { return ds.Observations }),
	}
}

// TestReadersAgree holds all five exported readers to one contract: an
// exact-count file and a streamed (-1) file yield the same observations; a
// file cut mid-record fails naming the record, whichever count its header
// carries; a file that ends a record short of its count fails on the
// missing one; and a file of another experiment is refused by name.
func TestReadersAgree(t *testing.T) {
	cases := readerCases()
	for i, c := range cases {
		t.Run(c.experiment, func(t *testing.T) {
			for _, records := range []int{2, StreamRecords} {
				file := c.file(t, records)
				h, got, err := c.read(strings.NewReader(file))
				if err != nil {
					t.Fatalf("records=%d: %v", records, err)
				}
				if h.Experiment != c.experiment || h.Records != records || h.Seed != 3 || h.Scale != 0.5 {
					t.Errorf("records=%d: header = %+v", records, h)
				}
				if !reflect.DeepEqual(got, c.want) {
					t.Errorf("records=%d: observations differ:\n got %+v\nwant %+v", records, got, c.want)
				}

				// Cut inside the second record: the first still decodes.
				cut := file[:len(file)-10]
				_, _, err = c.read(strings.NewReader(cut))
				if want := "dataset: record 1: unexpected EOF"; err == nil || err.Error() != want {
					t.Errorf("records=%d truncated: err = %v, want %q", records, err, want)
				}
			}

			// An exact-count file that ends on a record boundary one short.
			file := c.file(t, 3)
			_, _, err := c.read(strings.NewReader(file))
			if want := "dataset: record 2: EOF"; err == nil || err.Error() != want {
				t.Errorf("short file: err = %v, want %q", err, want)
			}

			other := cases[(i+1)%len(cases)]
			_, _, err = c.read(strings.NewReader(other.file(t, 2)))
			want := `dataset: experiment "` + other.experiment + `", want "` + c.experiment + `"`
			if err == nil || err.Error() != want {
				t.Errorf("wrong experiment: err = %v, want %q", err, want)
			}
		})
	}
}
