package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval: name, start and end (ns since the
// recorder's epoch), and the span that caused it (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder is the benchmark's own in-memory span recorder. It lives in the
// benchmark's files and wraps the calls into each layer; spans inside the
// program are a later change. A nil *recorder records nothing, which is how
// the untraced pass runs: its end-to-end numbers never see a span.
type recorder struct {
	mu    sync.Mutex
	trace string // one trace id per workload
	epoch time.Time
	spans []span
}

func newRecorder(trace string) *recorder {
	return &recorder{trace: trace, epoch: time.Now()}
}

// start opens a span under parent and returns its id (0 on a nil recorder).
func (r *recorder) start(parent int, name string) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: -1})
	r.mu.Unlock()
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover. Children may overlap each other (two
// workers under one stage) and may stick out of the parent; the covered
// part is the union of the children clipped to the parent, so overlapping
// time is subtracted once.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// spanFile is the JSON written when a traced run ends.
type spanFile struct {
	Trace string `json:"trace_id"`
	Spans []span `json:"spans"`
}

// write serializes every recorded span.
func (r *recorder) write(w io.Writer) error {
	r.mu.Lock()
	out := spanFile{Trace: r.trace, Spans: append([]span(nil), r.spans...)}
	r.mu.Unlock()
	return json.NewEncoder(w).Encode(out)
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}
