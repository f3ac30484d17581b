// Package obs renders the engine's telemetry in the OpenMetrics /
// Prometheus text exposition format, with zero dependencies: a small
// metric-family model, an encoder (Write), the mapping from a telemetry
// snapshot to stable metric names (StatsFamilies), and a minimal parser
// used by tests to validate the output (Parse).
//
// Naming follows the Prometheus conventions: every metric is prefixed
// "imfant_", counters expose a "_total" sample, histograms expose
// "_bucket"/"_sum"/"_count", and byte/second units are spelled out in the
// name. The names emitted here are a stable interface — dashboards and
// alerts hang off them — so renames are breaking changes; see DESIGN.md's
// "Stats & metrics reference".
package obs

import (
	"fmt"
	"sort"

	"repro/internal/hist"
	"repro/internal/telemetry"
)

// Kind is a metric family's type.
type Kind uint8

const (
	// Counter is a monotonically non-decreasing cumulative value; its one
	// sample carries the "_total" suffix.
	Counter Kind = iota
	// Gauge is a point-in-time value that can go up or down.
	Gauge
	// HistogramKind is a cumulative-bucket distribution rendered as
	// "_bucket{le=...}", "_sum", and "_count" samples.
	HistogramKind
)

// String returns the exposition-format type keyword.
func (k Kind) String() string {
	switch k {
	case Counter:
		return "counter"
	case Gauge:
		return "gauge"
	case HistogramKind:
		return "histogram"
	}
	return "untyped"
}

// Label is one name=value metric label.
type Label struct {
	Name, Value string
}

// Sample is one time series of a family: a label set plus either a scalar
// value (counters, gauges) or a histogram snapshot.
type Sample struct {
	Labels []Label
	Value  float64
	// Hist carries the full bucket distribution for HistogramKind
	// families; values are nanoseconds and are rendered in seconds (the
	// Prometheus base unit) by the encoder when Seconds is set.
	Hist *hist.Snapshot
	// Seconds converts the histogram's nanosecond observations to seconds
	// on output (bounds and sum divided by 1e9).
	Seconds bool
}

// Family is one metric family: the base name (no "_total"/"_bucket"
// suffix), help text, kind, and its samples.
type Family struct {
	Name    string
	Help    string
	Kind    Kind
	Samples []Sample
}

// CounterFamily builds a single-sample counter family.
func CounterFamily(name, help string, v float64) Family {
	return Family{Name: name, Help: help, Kind: Counter, Samples: []Sample{{Value: v}}}
}

// GaugeFamily builds a single-sample gauge family.
func GaugeFamily(name, help string, v float64) Family {
	return Family{Name: name, Help: help, Kind: Gauge, Samples: []Sample{{Value: v}}}
}

// StatsFamilies maps a telemetry snapshot (plus, when latency attribution
// is on, the raw per-stage histograms) to metric families with stable
// names. Sections absent from the snapshot are omitted; zero-valued
// per-rule counters are skipped to keep rule-heavy rulesets scrapeable.
func StatsFamilies(s telemetry.Stats, lat *telemetry.Latency) []Family {
	fams := []Family{
		CounterFamily("imfant_scans", "Completed automaton executions.", float64(s.Scans)),
		CounterFamily("imfant_bytes_scanned", "Input bytes matched against, per automaton.", float64(s.BytesScanned)),
		CounterFamily("imfant_matches", "Reported match events.", float64(s.Matches)),
	}
	if f, ok := ruleHitsFamily(s.RuleHits); ok {
		fams = append(fams, f)
	}
	if l := s.Lazy; l != nil {
		fams = append(fams,
			GaugeFamily("imfant_lazy_automata", "Automata running on the lazy-DFA engine.", float64(l.Automata)),
			GaugeFamily("imfant_lazy_cached_states", "Cached DFA states across automata.", float64(l.CachedStates)),
			GaugeFamily("imfant_lazy_cache_bytes", "Bytes held by the transition caches across automata.", float64(l.CacheBytes)),
			GaugeFamily("imfant_lazy_max_states", "Per-automaton transition-cache capacity.", float64(l.MaxStates)),
			GaugeFamily("imfant_lazy_byte_classes", "Total byte-class count across automata.", float64(l.ByteClasses)),
			CounterFamily("imfant_lazy_hits", "Input bytes served by a cached transition.", float64(l.Hits)),
			CounterFamily("imfant_lazy_misses", "Transitions computed on demand.", float64(l.Misses)),
			CounterFamily("imfant_lazy_flushes", "Whole-cache resets forced by the capacity limit.", float64(l.Flushes)),
			CounterFamily("imfant_lazy_fallbacks", "Scans that abandoned the cache for iMFAnt after thrashing.", float64(l.Fallbacks)),
		)
	}
	if p := s.Prefilter; p != nil {
		fams = append(fams,
			GaugeFamily("imfant_prefilter_filterable_rules", "Rules carrying a literal factor.", float64(p.FilterableRules)),
			GaugeFamily("imfant_prefilter_factors", "Distinct factor strings swept for.", float64(p.Factors)),
			CounterFamily("imfant_prefilter_sweeps", "Aho-Corasick factor sweeps.", float64(p.Sweeps)),
			CounterFamily("imfant_prefilter_factor_hits", "Distinct factors found, summed over sweeps.", float64(p.FactorHits)),
			CounterFamily("imfant_prefilter_groups_skipped", "Whole MFSA executions elided by the prefilter.", float64(p.GroupsSkipped)),
			CounterFamily("imfant_prefilter_bytes_saved", "Input bytes the skipped executions never scanned.", float64(p.BytesSaved)),
		)
	}
	if a := s.Accel; a != nil {
		fams = append(fams,
			GaugeFamily("imfant_accel_automata", "Automata with byte-skipping acceleration on.", float64(a.Automata)),
			GaugeFamily("imfant_accel_states", "Lazy-DFA cached states classified accelerable.", float64(a.AccelStates)),
			CounterFamily("imfant_accel_bytes_skipped", "Input bytes consumed by accelerated jumps.", float64(a.BytesSkipped)),
		)
	}
	if st := s.Strategy; st != nil {
		planned := 0.0
		if st.Planned {
			planned = 1
		}
		groups := Family{Name: "imfant_strategy_groups", Kind: Gauge,
			Help: "Automaton groups per execution strategy."}
		bytes := Family{Name: "imfant_strategy_bytes", Kind: Counter,
			Help: "Input bytes matched against, per execution strategy."}
		for _, g := range st.Groups {
			lbl := []Label{{Name: "strategy", Value: g.Strategy}}
			groups.Samples = append(groups.Samples, Sample{Labels: lbl, Value: float64(g.Groups)})
			bytes.Samples = append(bytes.Samples, Sample{Labels: lbl, Value: float64(g.Bytes)})
		}
		fams = append(fams,
			GaugeFamily("imfant_strategy_planned", "1 when the planner classified groups individually.", planned),
			groups, bytes,
			CounterFamily("imfant_strategy_sweeps_disabled", "Factor sweeps elided by the effectiveness tracker.", float64(st.SweepsDisabled)),
			CounterFamily("imfant_strategy_sweep_probes", "Sweeps re-run as re-enable probes.", float64(st.SweepProbes)),
			GaugeFamily("imfant_strategy_groups_ungated", "Gated groups whose factor gate is disabled.", float64(st.GroupsUngated)),
		)
	}
	if sg := s.Segment; sg != nil {
		segBytes := Family{Name: "imfant_segment_bytes", Kind: Counter,
			Help: "Input bytes by segment path (parallel: segmented literal pass); paths partition imfant_bytes_scanned."}
		for _, p := range []struct {
			path string
			v    int64
		}{
			{"parallel", sg.ParallelBytes},
			{"serial", sg.SerialBytes},
		} {
			segBytes.Samples = append(segBytes.Samples, Sample{
				Labels: []Label{{Name: "path", Value: p.path}}, Value: float64(p.v)})
		}
		fams = append(fams,
			CounterFamily("imfant_segment_scans", "AC and chain group executions run in a segmented literal pass.", float64(sg.SegmentedScans)),
			CounterFamily("imfant_segment_segments", "Segments executed across segmented literal passes.", float64(sg.Segments)),
			segBytes,
		)
	}
	if p := s.Profile; p != nil {
		fams = append(fams,
			CounterFamily("imfant_profile_samples", "Profiler sampling points taken.", float64(p.Samples)))
	}
	if d := s.Degraded; d != nil {
		deg := Family{Name: "imfant_degraded", Kind: Counter,
			Help: "Scans completed below full service, by degradation rung."}
		for _, r := range []struct {
			reason string
			v      int64
		}{
			{"scan_timeout", d.ScanTimeouts},
			{"shed", d.Shed},
			{"worker_panic", d.WorkerPanics},
			{"thrash_fallback", d.ThrashFallbacks},
			{"cache_grow", d.CacheGrows},
			{"pinned_scan", d.PinnedScans},
		} {
			deg.Samples = append(deg.Samples, Sample{
				Labels: []Label{{Name: "reason", Value: r.reason}}, Value: float64(r.v)})
		}
		fams = append(fams, deg)
	}
	if lat != nil {
		f := Family{Name: "imfant_stage_latency_seconds", Kind: HistogramKind,
			Help: "Per-stage wall-clock latency of the scan pipeline."}
		for st := telemetry.Stage(0); st < telemetry.NumStages; st++ {
			snap := lat.Snapshot(st)
			if snap.Count == 0 {
				continue
			}
			sc := snap
			f.Samples = append(f.Samples, Sample{
				Labels:  []Label{{Name: "stage", Value: st.String()}},
				Hist:    &sc,
				Seconds: true,
			})
		}
		if len(f.Samples) > 0 {
			fams = append(fams, f)
		}
	}
	return fams
}

// ruleHitsFamily builds the per-rule hit counter, skipping zero rows; ok
// is false when no rule has matched yet (the family is omitted entirely
// rather than exploding into N zero series).
func ruleHitsFamily(hits []int64) (Family, bool) {
	f := Family{Name: "imfant_rule_hits", Kind: Counter,
		Help: "Match events per rule id (zero rows omitted)."}
	for i, n := range hits {
		if n == 0 {
			continue
		}
		f.Samples = append(f.Samples, Sample{
			Labels: []Label{{Name: "rule", Value: fmt.Sprint(i)}}, Value: float64(n)})
	}
	return f, len(f.Samples) > 0
}

// sortLabels orders a label set by name for deterministic output.
func sortLabels(ls []Label) []Label {
	out := append([]Label(nil), ls...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
