package dataset

import (
	"bytes"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"github.com/tftproject/tft/internal/core"
)

func streamFixture() []*core.DNSObservation {
	return []*core.DNSObservation{
		{ZID: "z1", NodeIP: netip.MustParseAddr("91.1.2.3"),
			ResolverIP: netip.MustParseAddr("91.1.0.53"), ASN: 64500, Country: "MY",
			Hijacked: true, LandingDomains: []string{"midascdn.nervesis.com"},
			LandingBody: []byte("<html>ads</html>")},
		{ZID: "z2", NodeIP: netip.MustParseAddr("91.1.2.4"), ASN: 64500, Country: "MY",
			SharedAnycast: true},
		{ZID: "z3", NodeIP: netip.MustParseAddr("10.0.0.1"),
			ResolverIP: netip.MustParseAddr("8.8.8.8"), ASN: 64501, Country: "DE"},
	}
}

// TestStreamWriterMatchesBatch pins the compatibility contract of format
// v1: a streamed file (header count StreamRecords) and the file WriteDNS
// writes for the same observations differ in the header's count alone.
func TestStreamWriterMatchesBatch(t *testing.T) {
	obs := streamFixture()
	var batch, streamed bytes.Buffer
	if err := WriteDNS(&batch, 42, 0.05, &core.DNSDataset{Observations: obs}); err != nil {
		t.Fatal(err)
	}
	if err := writeRecords(&streamed, "dns", 42, 0.05, StreamRecords, obs); err != nil {
		t.Fatal(err)
	}
	want := strings.Replace(batch.String(), `"records":3}`, `"records":-1}`, 1)
	if streamed.String() != want {
		t.Fatalf("streamed output diverged from batch output:\n--- batch ---\n%s\n--- streamed ---\n%s",
			batch.Bytes(), streamed.Bytes())
	}
}

// TestStreamWriterUnknownCount round-trips a streamed file: the header
// carries the StreamRecords sentinel and the reader consumes to EOF.
func TestStreamWriterUnknownCount(t *testing.T) {
	obs := streamFixture()
	var buf bytes.Buffer
	if err := writeRecords(&buf, "dns", 42, 0.05, StreamRecords, obs); err != nil {
		t.Fatal(err)
	}

	h, got, err := ReadDNS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Records != StreamRecords {
		t.Fatalf("header records = %d, want %d", h.Records, StreamRecords)
	}
	if len(got.Observations) != len(obs) {
		t.Fatalf("read %d observations, want %d", len(got.Observations), len(obs))
	}
	for i := range obs {
		if !reflect.DeepEqual(obs[i], got.Observations[i]) {
			t.Fatalf("record %d: %+v != %+v", i, obs[i], got.Observations[i])
		}
	}
}

// TestReadHeaderRejectsBelowSentinel keeps garbage counts out: -1 is the
// one legal negative value.
func TestReadHeaderRejectsBelowSentinel(t *testing.T) {
	raw := `{"format":"tft-dataset","version":1,"experiment":"dns","seed":1,"scale":0.05,"records":-2}` + "\n"
	if _, _, err := ReadDNS(strings.NewReader(raw)); err == nil {
		t.Fatal("records=-2 accepted")
	}
}
