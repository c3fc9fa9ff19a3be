package dataset

import (
	"bytes"
	"io"
	"testing"

	"github.com/tftproject/tft/internal/geo"
)

// releaseReader is one file kind seen experiment-blind: read parses a file
// and returns a function that writes what it read back out.
type releaseReader struct {
	name string
	read func(io.Reader) (write func(io.Writer) error, err error)
}

func releaseReaders() []releaseReader {
	return []releaseReader{
		{"dns", func(r io.Reader) (func(io.Writer) error, error) {
			h, ds, err := ReadDNS(r)
			return func(w io.Writer) error { return WriteDNS(w, h.Seed, h.Scale, ds) }, err
		}},
		{"http", func(r io.Reader) (func(io.Writer) error, error) {
			h, ds, err := ReadHTTP(r)
			return func(w io.Writer) error { return WriteHTTP(w, h.Seed, h.Scale, ds) }, err
		}},
		{"tls", func(r io.Reader) (func(io.Writer) error, error) {
			h, ds, err := ReadTLS(r)
			return func(w io.Writer) error { return WriteTLS(w, h.Seed, h.Scale, ds) }, err
		}},
		{"monitor", func(r io.Reader) (func(io.Writer) error, error) {
			h, ds, err := ReadMonitor(r)
			return func(w io.Writer) error { return WriteMonitor(w, h.Seed, h.Scale, ds) }, err
		}},
		{"smtp", func(r io.Reader) (func(io.Writer) error, error) {
			h, ds, err := ReadSMTP(r)
			return func(w io.Writer) error { return WriteSMTP(w, h.Seed, h.Scale, ds) }, err
		}},
		{"geo", func(r io.Reader) (func(io.Writer) error, error) {
			h, reg, err := ReadGeo(r)
			return func(w io.Writer) error { return WriteGeo(w, h.Seed, h.Scale, reg) }, err
		}},
	}
}

// FuzzReadRelease feeds any bytes to the five experiment readers and
// ReadGeo: each fails with an error, or what it read writes out to a file
// that reads back and writes out again byte for byte. The comparison is of
// written files because the format does not tell an empty list from an
// absent one, nor one clock zone from another at the same offset.
func FuzzReadRelease(f *testing.F) {
	for _, c := range readerCases() {
		f.Add([]byte(c.file(f, 2)))
		f.Add([]byte(c.file(f, StreamRecords)))
	}
	reg := geo.NewRegistry()
	if err := geo.InstallGoogle(reg); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGeo(&buf, 1, 0.5, reg); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"format":"tft-dataset","version":1,"experiment":"tls","records":-1}` + "\n" +
		`{"sites":[{"leaf_key":"0g"}]}` + "\n" + `null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, rr := range releaseReaders() {
			write, err := rr.read(bytes.NewReader(data))
			if err != nil {
				continue
			}
			var first bytes.Buffer
			if err := write(&first); err != nil {
				t.Fatalf("%s: writing what was read: %v", rr.name, err)
			}
			again, err := rr.read(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatalf("%s: reading back\n%s\n%v", rr.name, first.Bytes(), err)
			}
			var second bytes.Buffer
			if err := again(&second); err != nil {
				t.Fatalf("%s: writing again: %v", rr.name, err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("%s: wrote\n%s\nthen\n%s", rr.name, first.Bytes(), second.Bytes())
			}
		}
	})
}
