package dataset

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"github.com/tftproject/tft/internal/core"
)

// StreamRecords is the Header.Records sentinel for streamed datasets: the
// writer emits the header before any observation exists, so the count is
// unknown. Readers of a streamed file consume records until EOF.
const StreamRecords = -1

// Writer streams one dataset: a header line followed by one JSON record
// per observation, written as each arrives rather than from a materialized
// slice. Not safe for concurrent use; sharded crawls write one file per
// shard. Close flushes and drops the underlying buffer — every Write after
// Close fails.
type Writer[T any] struct {
	bw  *bufio.Writer
	enc *json.Encoder
	n   int
}

// newStreamWriter writes the header and returns the row writer. records is
// the exact observation count when known, or StreamRecords for an
// unbounded stream.
func newStreamWriter[T any](w io.Writer, experiment string, seed uint64, scale float64, records int) (*Writer[T], error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(Header{Format: FormatName, Version: Version, Experiment: experiment,
		Seed: seed, Scale: scale, Records: records}); err != nil {
		return nil, err
	}
	return &Writer[T]{bw: bw, enc: enc}, nil
}

// Write encodes one observation.
func (sw *Writer[T]) Write(o T) error {
	if sw.bw == nil {
		return fmt.Errorf("dataset: write after Close")
	}
	sw.n++
	return sw.enc.Encode(o)
}

// Count reports the records written so far.
func (sw *Writer[T]) Count() int { return sw.n }

// Close flushes buffered output. Idempotent.
func (sw *Writer[T]) Close() error {
	if sw.bw == nil {
		return nil
	}
	err := sw.bw.Flush()
	sw.bw = nil
	sw.enc = nil
	return err
}

// Per-experiment streaming writer types.
type (
	// DNSWriter streams DNS observations.
	DNSWriter = Writer[*core.DNSObservation]
	// HTTPWriter streams HTTP observations.
	HTTPWriter = Writer[*core.HTTPObservation]
	// TLSWriter streams TLS observations.
	TLSWriter = Writer[*core.TLSObservation]
	// MonitorWriter streams monitoring observations.
	MonitorWriter = Writer[*core.MonObservation]
	// SMTPWriter streams SMTP observations.
	SMTPWriter = Writer[*core.SMTPObservation]
)

// NewDNSWriter opens a streaming DNS dataset writer. records may be
// StreamRecords when the count is unknown up front.
func NewDNSWriter(w io.Writer, seed uint64, scale float64, records int) (*DNSWriter, error) {
	return newStreamWriter[*core.DNSObservation](w, "dns", seed, scale, records)
}

// NewHTTPWriter opens a streaming HTTP dataset writer.
func NewHTTPWriter(w io.Writer, seed uint64, scale float64, records int) (*HTTPWriter, error) {
	return newStreamWriter[*core.HTTPObservation](w, "http", seed, scale, records)
}

// NewTLSWriter opens a streaming TLS dataset writer.
func NewTLSWriter(w io.Writer, seed uint64, scale float64, records int) (*TLSWriter, error) {
	return newStreamWriter[*core.TLSObservation](w, "tls", seed, scale, records)
}

// NewMonitorWriter opens a streaming monitoring dataset writer.
func NewMonitorWriter(w io.Writer, seed uint64, scale float64, records int) (*MonitorWriter, error) {
	return newStreamWriter[*core.MonObservation](w, "monitor", seed, scale, records)
}

// NewSMTPWriter opens a streaming SMTP dataset writer.
func NewSMTPWriter(w io.Writer, seed uint64, scale float64, records int) (*SMTPWriter, error) {
	return newStreamWriter[*core.SMTPObservation](w, "smtp", seed, scale, records)
}
