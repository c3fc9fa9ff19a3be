package progress

import (
	"encoding/json"
	"io"
	"time"
)

// RunManifest is a run's flight-recorder closing statement: the
// reproducibility inputs (seed, scale, workers), the crawl's final counts,
// and the process watermarks observed while it ran. tft attaches one to
// every Run, Results.Dump writes the campaign's manifests as
// manifest.json, and checkpoint streams end with one "manifest" line.
//
// Timestamps are wall-clock (they describe the operator's run, not
// simulated time) and are zero when the caller did not supply them;
// DurationSeconds is elapsed on whatever clock the caller timed the run
// with.
type RunManifest struct {
	// Type is "manifest" in JSONL checkpoint streams; empty in
	// manifest.json (the array form is self-describing).
	Type       string `json:"type,omitempty"`
	Experiment string `json:"experiment"`

	Seed    uint64  `json:"seed"`
	Scale   float64 `json:"scale"`
	Workers int     `json:"workers"`
	Shards  int     `json:"shards"`

	StartedAt       time.Time `json:"started_at"`
	FinishedAt      time.Time `json:"finished_at"`
	DurationSeconds float64   `json:"duration_seconds"`

	// Sessions and UniqueNodes come from the crawl's Stats; NodesDone
	// counts successful observations (UniqueNodes minus sessions that
	// failed after discovery), and TotalNodes is the population the ETA
	// counted down from.
	Sessions    int64 `json:"sessions"`
	UniqueNodes int64 `json:"unique_nodes"`
	NodesDone   int64 `json:"nodes_done"`
	TotalNodes  int64 `json:"total_nodes"`
	Probes      int64 `json:"probes"`
	Violations  int64 `json:"violations"`
	Failures    int64 `json:"failures"`
	Discarded   int64 `json:"discarded"`
	Duplicates  int64 `json:"duplicates"`
	// Faults is the run's error budget: probes lost to transport faults
	// (injected chaos or real-network analogues), excluded from violation
	// denominators.
	Faults        int64 `json:"faults"`
	StoppedByRule bool  `json:"stopped_by_rule"`
	Stalls        int64 `json:"stalls"`

	Watermarks Watermarks `json:"watermarks"`
}

// WriteLine appends the manifest as one JSONL line with Type "manifest" —
// the checkpoint stream's closing record.
func (m *RunManifest) WriteLine(w io.Writer) error {
	out := *m
	out.Type = "manifest"
	return json.NewEncoder(w).Encode(out)
}

// WriteManifests serializes a campaign's manifests as an indented JSON
// array — the manifest.json in a dataset release.
func WriteManifests(w io.Writer, ms []*RunManifest) error {
	out := make([]RunManifest, 0, len(ms))
	for _, m := range ms {
		if m == nil {
			continue
		}
		c := *m
		c.Type = ""
		out = append(out, c)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
