package tft

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"github.com/tftproject/tft/internal/progress"
	"github.com/tftproject/tft/internal/simnet"
)

// TestCountsSharedEverywhere holds the flight recorder's three views of a
// crawl to the one outcome tally. Every key progress.Counts declares must
// appear on a Status, a ShardStatus and a Sample — so a count added later
// cannot reach some views and miss others, the way faults once missed the
// checkpoint stream — and under chaos the stream must reconcile: on every
// sample line the probes issued cover the outcomes counted so far, and on
// the last line, with nothing in flight, they equal them.
func TestCountsSharedEverywhere(t *testing.T) {
	counts := reflect.TypeOf(progress.Counts{})
	for _, view := range []any{progress.Status{}, progress.ShardStatus{}, progress.Sample{}} {
		raw, err := json.Marshal(view)
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(raw, &keys); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < counts.NumField(); i++ {
			key := counts.Field(i).Tag.Get("json")
			if _, ok := keys[key]; !ok {
				t.Errorf("%T has no %q key: %s", view, key, raw)
			}
		}
	}

	tracker := progress.NewTracker()
	opts := Options{Seed: 20160413, Scale: 0.01, Chaos: "lossy-links"}
	opts.Crawl.Progress = tracker
	var stream bytes.Buffer
	sampler := &progress.Sampler{
		Tracker:    tracker,
		Clock:      simnet.Real{},
		Interval:   2 * time.Millisecond,
		Checkpoint: &stream,
	}
	if err := sampler.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := RunDNS(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	if err := sampler.Stop(); err != nil {
		t.Fatal(err)
	}

	outcomes := func(c progress.Counts) int64 {
		return c.Done + c.Failures + c.Discarded + c.Duplicates + c.Faults
	}
	var last progress.Counts
	lines := 0
	sc := bufio.NewScanner(&stream)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		// Decoded as bare Counts: the line must carry the tally under the
		// same keys, whatever else a sample holds.
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		lines++
		if last.Probes < outcomes(last) {
			t.Fatalf("line %d: %d probes cannot cover %d outcomes: %s", lines, last.Probes, outcomes(last), sc.Bytes())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines < 2 {
		t.Fatalf("%d sample lines; the crawl outran the sampler and the per-line check proved nothing", lines)
	}
	if last.Faults == 0 {
		t.Fatal("lossy-links run counted no faulted probe on its sample lines")
	}
	if last.Probes != outcomes(last) {
		t.Fatalf("final line does not reconcile: %d probes, %d outcomes (%+v)", last.Probes, outcomes(last), last)
	}
}
