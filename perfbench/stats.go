package main

import (
	"math"
	"sort"
	"time"

	imfant "repro"
)

// summary is the spread of one sampled quantity within a run.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
	P99    float64 `json:"p99,omitempty"`
	// P99Resolved is false when fewer than ten samples lie beyond the p99.
	P99Resolved bool `json:"p99_resolved,omitempty"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{
		N: len(s), Min: s[0], Median: quantile(s, 0.5), Max: s[len(s)-1],
		P99: quantile(s, 0.99), P99Resolved: len(s) >= 1000,
	}
}

// quantile interpolates the q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// micros converts durations to float microseconds.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// folded is the sum of several rulesets' Stats() snapshots: the rulesets
// of one workload, or every version a Registry served.
type folded struct {
	scans, bytes, matches int64
	prefilter             imfant.PrefilterStats
	accel                 imfant.AccelStats
	lazy                  imfant.LazyStats
	segment               imfant.SegmentStats
	sweepsOff             int64
	// stratBytes is the bytes scanned per strategy name.
	stratBytes map[string]int64
	// stages is each latency stage's observation count, total time and
	// count-weighted p50, in nanoseconds.
	stages map[string]*stageFold
}

type stageFold struct {
	count     int64
	sum, p50w float64
}

func (s *stageFold) p50() float64 { return ratio(s.p50w, float64(s.count)) }

func sumStats(rss []*imfant.Ruleset) folded {
	f := folded{stratBytes: map[string]int64{}, stages: map[string]*stageFold{}}
	for _, rs := range rss {
		st := rs.Stats()
		f.scans += st.Scans
		f.bytes += st.BytesScanned
		f.matches += st.Matches
		if p := st.Prefilter; p != nil {
			f.prefilter.Sweeps += p.Sweeps
			f.prefilter.GroupsSkipped += p.GroupsSkipped
			f.prefilter.BytesSaved += p.BytesSaved
		}
		if a := st.Accel; a != nil {
			f.accel.BytesSkipped += a.BytesSkipped
		}
		if l := st.Lazy; l != nil {
			f.lazy.Hits += l.Hits
			f.lazy.Misses += l.Misses
			f.lazy.Flushes += l.Flushes
			f.lazy.Fallbacks += l.Fallbacks
		}
		if s := st.Segment; s != nil {
			f.segment.ParallelBytes += s.ParallelBytes
			f.segment.StitchBytes += s.StitchBytes
			f.segment.SerialBytes += s.SerialBytes
			f.segment.Fallbacks += s.Fallbacks
			f.segment.SegmentedScans += s.SegmentedScans
		}
		if s := st.Strategy; s != nil {
			f.sweepsOff += s.SweepsDisabled
			for _, g := range s.Groups {
				f.stratBytes[g.Strategy] += g.Bytes
			}
		}
		if l := st.Latency; l != nil {
			for _, s := range l.Stages {
				sf := f.stages[s.Stage]
				if sf == nil {
					sf = &stageFold{}
					f.stages[s.Stage] = sf
				}
				sf.count += s.Count
				sf.sum += s.Mean * float64(s.Count)
				sf.p50w += float64(s.P50) * float64(s.Count)
			}
		}
	}
	return f
}

func (f folded) stageSum(name string) float64 {
	if s := f.stages[name]; s != nil {
		return s.sum
	}
	return 0
}
