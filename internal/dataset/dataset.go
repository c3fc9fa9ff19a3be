// Package dataset serializes experiment observations to line-delimited
// JSON and back. The paper's fourth contribution is releasing analysis
// code and data (https://tft.ccs.neu.edu); this package is that release
// format: cmd/tft -dump writes the datasets a run produced, and
// cmd/analyze regenerates every table from the files alone, without
// re-running the measurement.
//
// The package owns the file around the records — the header, the format
// version and the record count. Each record is a core observation encoded
// by its own json tags, so the record shape is declared once, on the
// observation type. Records deliberately contain only what the paper could
// publish: no request bodies beyond hijack landing pages, and node
// identity limited to zID/IP/AS/country; TestReleaseFieldSet pins each
// experiment's keys.
package dataset

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"github.com/tftproject/tft/internal/core"
	"github.com/tftproject/tft/internal/geo"
)

// Header is the first line of every dataset file.
type Header struct {
	Format     string  `json:"format"` // "tft-dataset"
	Version    int     `json:"version"`
	Experiment string  `json:"experiment"` // dns|http|tls|monitor|smtp|geo
	Seed       uint64  `json:"seed"`
	Scale      float64 `json:"scale"`
	Records    int     `json:"records"`
}

// FormatName identifies dataset files.
const FormatName = "tft-dataset"

// Version is the current format version.
const Version = 1

// StreamRecords is the Header.Records sentinel of a streamed file, one
// whose writer emitted the header before it knew how many records would
// follow. The readers accept it and consume records until EOF; this
// program's writers always know the count.
const StreamRecords = -1

// WriteDNS streams a DNS dataset.
func WriteDNS(w io.Writer, seed uint64, scale float64, ds *core.DNSDataset) error {
	return writeRecords(w, "dns", seed, scale, len(ds.Observations), ds.Observations)
}

// ReadDNS loads a DNS dataset.
func ReadDNS(r io.Reader) (*Header, *core.DNSDataset, error) {
	return readRecords[core.DNSObservation](r, "dns")
}

// WriteHTTP streams an HTTP dataset.
func WriteHTTP(w io.Writer, seed uint64, scale float64, ds *core.HTTPDataset) error {
	return writeRecords(w, "http", seed, scale, len(ds.Observations), ds.Observations)
}

// ReadHTTP loads an HTTP dataset.
func ReadHTTP(r io.Reader) (*Header, *core.HTTPDataset, error) {
	return readRecords[core.HTTPObservation](r, "http")
}

// WriteTLS streams a TLS dataset.
func WriteTLS(w io.Writer, seed uint64, scale float64, ds *core.TLSDataset) error {
	return writeRecords(w, "tls", seed, scale, len(ds.Observations), ds.Observations)
}

// ReadTLS loads a TLS dataset.
func ReadTLS(r io.Reader) (*Header, *core.TLSDataset, error) {
	h, ds, err := readRecords[core.TLSObservation](r, "tls")
	if err != nil {
		return nil, nil, err
	}
	return h, &core.TLSDataset{Dataset: *ds}, nil
}

// WriteMonitor streams a monitoring dataset.
func WriteMonitor(w io.Writer, seed uint64, scale float64, ds *core.MonDataset) error {
	return writeRecords(w, "monitor", seed, scale, len(ds.Observations), ds.Observations)
}

// ReadMonitor loads a monitoring dataset.
func ReadMonitor(r io.Reader) (*Header, *core.MonDataset, error) {
	return readRecords[core.MonObservation](r, "monitor")
}

// WriteSMTP streams an SMTP-extension dataset.
func WriteSMTP(w io.Writer, seed uint64, scale float64, ds *core.SMTPDataset) error {
	return writeRecords(w, "smtp", seed, scale, len(ds.Observations), ds.Observations)
}

// ReadSMTP loads an SMTP-extension dataset.
func ReadSMTP(r io.Reader) (*Header, *core.SMTPDataset, error) {
	return readRecords[core.SMTPObservation](r, "smtp")
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

// readRecords is the read side's counterpart of writeRecords: it validates the
// header and decodes each record line into a fresh T — exactly
// Header.Records of them, or to EOF for a streamed file.
func readRecords[T any](r io.Reader, experiment string) (*Header, *core.Dataset[*T], error) {
	h, dec, err := readHeader(r, experiment)
	if err != nil {
		return nil, nil, err
	}
	ds := &core.Dataset[*T]{}
	for i := 0; h.Records < 0 || i < h.Records; i++ {
		rec := new(T)
		if err := dec.Decode(rec); err != nil {
			if h.Records < 0 && errors.Is(err, io.EOF) {
				break
			}
			return nil, nil, fmt.Errorf("dataset: record %d: %w", i, err)
		}
		ds.Observations = append(ds.Observations, rec)
	}
	return h, ds, nil
}

// writeRecords writes one dataset file: the header claiming records, then
// one JSON line per element of recs. The exported writers pass len(recs);
// the package's tests also claim StreamRecords or a count recs falls short
// of, the files a reader must accept or refuse.
func writeRecords[T any](w io.Writer, experiment string, seed uint64, scale float64, records int, recs []T) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(Header{Format: FormatName, Version: Version, Experiment: experiment,
		Seed: seed, Scale: scale, Records: records}); err != nil {
		return err
	}
	for _, o := range recs {
		if err := enc.Encode(o); err != nil {
			return err
		}
	}
	return bw.Flush()
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
	recs := make([]geoRecord, 0, len(orgs)+len(ases)+len(prefixes))
	for i := range orgs {
		recs = append(recs, geoRecord{Org: &orgs[i]})
	}
	for i := range ases {
		recs = append(recs, geoRecord{AS: &ases[i]})
	}
	for i := range prefixes {
		recs = append(recs, geoRecord{Prefix: &prefixes[i]})
	}
	return writeRecords(w, "geo", seed, scale, len(recs), recs)
}

// ReadGeo rebuilds a registry from a snapshot file.
func ReadGeo(r io.Reader) (*Header, *geo.Registry, error) {
	h, ds, err := readRecords[geoRecord](r, "geo")
	if err != nil {
		return nil, nil, err
	}
	var orgs []geo.SnapshotOrg
	var ases []geo.SnapshotAS
	var prefixes []geo.SnapshotPrefix
	for _, rec := range ds.Observations {
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
