package main

import (
	"encoding/json"
	"os"
	"time"

	imfant "repro"
)

// span is one traced call: its name, its interval in nanoseconds since the
// run began, and the span that caused it (0 for none).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// statsMark records the Stats() counters of the traced rulesets at a span's
// end, so ratios can be taken where the work happened.
type statsMark struct {
	Span          int32 `json:"span"`
	Scans         int64 `json:"scans"`
	BytesScanned  int64 `json:"bytes_scanned"`
	Matches       int64 `json:"matches"`
	GroupsSkipped int64 `json:"groups_skipped"`
	BytesSkipped  int64 `json:"bytes_skipped"`
	LazyHits      int64 `json:"lazy_hits"`
	LazyMisses    int64 `json:"lazy_misses"`
	ParallelBytes int64 `json:"parallel_bytes"`
	StitchBytes   int64 `json:"stitch_bytes"`
}

// tracer keeps the spans of a traced run in memory until the run ends. A
// nil *tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	t0    time.Time
	spans []span
	marks []statsMark
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// record appends a span for an interval already measured by the caller.
func (t *tracer) record(name string, parent int32, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{ID: int32(len(t.spans) + 1), Parent: parent, Name: name, Start: s, End: s + int64(d)})
}

// mark records the summed Stats() of rss at span id.
func (t *tracer) mark(id int32, rss []*imfant.Ruleset) {
	if t == nil {
		return
	}
	f := sumStats(rss)
	t.marks = append(t.marks, statsMark{
		Span: id, Scans: f.scans, BytesScanned: f.bytes, Matches: f.matches,
		GroupsSkipped: f.prefilter.GroupsSkipped, BytesSkipped: f.accel.BytesSkipped,
		LazyHits: f.lazy.Hits, LazyMisses: f.lazy.Misses,
		ParallelBytes: f.segment.ParallelBytes, StitchBytes: f.segment.StitchBytes,
	})
}

// write saves the spans and marks as one JSON document.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(struct {
		Spans []span      `json:"spans"`
		Marks []statsMark `json:"stats_marks"`
	}{t.spans, t.marks})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
