package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
)

// benchFile is the machine-readable benchmark record written by -json:
// one entry per (dataset, engine) pair of the engine comparison, in a
// stable shape so successive runs diff cleanly and CI can archive them as
// artifacts for regression tracking.
type benchFile struct {
	Name    string       `json:"name"`
	Created string       `json:"created"`
	Go      string       `json:"go"`
	GOOS    string       `json:"goos"`
	GOARCH  string       `json:"goarch"`
	CPUs    int          `json:"cpus"`
	Config  benchConfig  `json:"config"`
	Results []benchEntry `json:"results"`
}

type benchConfig struct {
	StreamSize int `json:"stream_size"`
	Reps       int `json:"reps"`
}

type benchEntry struct {
	// Benchmark names the measurement: engines/<dataset>/<engine>.
	Benchmark string `json:"benchmark"`
	// NsPerOp is the average single-thread scan latency in nanoseconds.
	NsPerOp int64 `json:"ns_per_op"`
	// BytesPerSec is the corresponding scan throughput.
	BytesPerSec float64 `json:"bytes_per_sec"`
}

// writeBenchJSON runs the engine comparison (iMFAnt vs 2-stride vs warm
// lazy-DFA, M = all, keep semantics) and writes BENCH_<name>.json in the
// current directory.
func writeBenchJSON(r *experiments.Runner, o experiments.Opts, name string) (string, error) {
	rows, err := r.Lazy(nil)
	if err != nil {
		return "", err
	}
	bf := benchFile{
		Name:    name,
		Created: time.Now().UTC().Format(time.RFC3339),
		Go:      runtime.Version(),
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		CPUs:    runtime.NumCPU(),
		Config:  benchConfig{StreamSize: o.StreamSize, Reps: o.Reps},
	}
	add := func(abbr, engine string, d time.Duration) {
		if d <= 0 {
			return
		}
		bf.Results = append(bf.Results, benchEntry{
			Benchmark:   fmt.Sprintf("engines/%s/%s", abbr, engine),
			NsPerOp:     d.Nanoseconds(),
			BytesPerSec: float64(o.StreamSize) / d.Seconds(),
		})
	}
	for _, row := range rows {
		add(row.Abbr, "imfant", row.IMFAntTime)
		add(row.Abbr, "stride2", row.StrideTime)
		add(row.Abbr, "lazydfa", row.LazyTime)
	}
	path := "BENCH_" + name + ".json"
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// prefilterEntry is one (dataset, stream) measurement of the production
// Options.Prefilter study, with the gating context a regression tracker
// needs to interpret the speedup.
type prefilterEntry struct {
	// Benchmark names the measurement: prefilter/<dataset>/<hot|cold>.
	Benchmark string `json:"benchmark"`
	// Filterable / Rules is the factor coverage; Groups the MFSA count.
	Filterable int `json:"filterable"`
	Rules      int `json:"rules"`
	Groups     int `json:"groups"`
	// SkipRate is the fraction of (scan, group) executions elided.
	SkipRate float64 `json:"skip_rate"`
	// OffNsPerOp / OnNsPerOp are whole-ruleset scan latencies with the
	// prefilter off and on; Speedup is their ratio.
	OffNsPerOp int64   `json:"off_ns_per_op"`
	OnNsPerOp  int64   `json:"on_ns_per_op"`
	Speedup    float64 `json:"speedup"`
}

// writePrefilterJSON records the Options.Prefilter on/off comparison as
// BENCH_prefilter.json, the regression-tracking artifact the CI run
// archives next to BENCH_ci.json.
func writePrefilterJSON(rows []prefilterRow, o experiments.Opts) (string, error) {
	out := struct {
		Name    string           `json:"name"`
		Created string           `json:"created"`
		Go      string           `json:"go"`
		GOOS    string           `json:"goos"`
		GOARCH  string           `json:"goarch"`
		CPUs    int              `json:"cpus"`
		Config  benchConfig      `json:"config"`
		Results []prefilterEntry `json:"results"`
	}{
		Name:    "prefilter",
		Created: time.Now().UTC().Format(time.RFC3339),
		Go:      runtime.Version(),
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		CPUs:    runtime.NumCPU(),
		Config:  benchConfig{StreamSize: o.StreamSize, Reps: o.Reps},
	}
	for _, row := range rows {
		stream := "cold"
		if row.HotStream {
			stream = "hot"
		}
		out.Results = append(out.Results, prefilterEntry{
			Benchmark:  fmt.Sprintf("prefilter/%s/%s", row.Abbr, stream),
			Filterable: row.Filterable,
			Rules:      row.Rules,
			Groups:     row.Groups,
			SkipRate:   row.SkipRate,
			OffNsPerOp: row.OffTime.Nanoseconds(),
			OnNsPerOp:  row.OnTime.Nanoseconds(),
			Speedup:    row.Speedup,
		})
	}
	path := "BENCH_prefilter.json"
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// accelEntry is one (workload, engine) measurement of the Options.Accel
// study, with the skip context a regression tracker needs to interpret the
// speedup.
type accelEntry struct {
	// Benchmark names the measurement: accel/<workload>/<engine>.
	Benchmark string `json:"benchmark"`
	// SkippedFrac is accelerated-jump bytes over scanned bytes, in [0, 1].
	SkippedFrac float64 `json:"skipped_frac"`
	// AccelStates is the accelerable cached-state gauge (lazy engine only).
	AccelStates int64 `json:"accel_states"`
	// Matches is the per-scan match count, identical accel on and off.
	Matches int64 `json:"matches"`
	// OffNsPerOp / OnNsPerOp are whole-ruleset scan latencies with
	// Options.Accel off and on; Speedup is their ratio.
	OffNsPerOp int64   `json:"off_ns_per_op"`
	OnNsPerOp  int64   `json:"on_ns_per_op"`
	Speedup    float64 `json:"speedup"`
}

// strategyEntry is one workload measurement of the strategy-planner study,
// with the classification context a regression tracker needs to interpret
// the speedup.
type strategyEntry struct {
	// Benchmark names the measurement: strategy/<workload>.
	Benchmark string `json:"benchmark"`
	// Strategies is the planner's per-group assignment, in group order.
	Strategies string `json:"strategies"`
	// Groups is the MFSA count; Matches the per-scan match count,
	// identical planner-on and baseline.
	Groups  int   `json:"groups"`
	Matches int64 `json:"matches"`
	// LazyNsPerOp / PlanNsPerOp are whole-ruleset scan latencies under the
	// forced lazy-DFA baseline and under the planner; Speedup is their
	// ratio. The all-literal row's speedup is the acceptance number.
	LazyNsPerOp int64   `json:"lazy_ns_per_op"`
	PlanNsPerOp int64   `json:"plan_ns_per_op"`
	Speedup     float64 `json:"speedup"`
}

// writeStrategyJSON records the planner-vs-lazy comparison as
// BENCH_strategy.json, archived by CI next to BENCH_accel.json.
func writeStrategyJSON(rows []strategyRow, o experiments.Opts) (string, error) {
	out := struct {
		Name    string          `json:"name"`
		Created string          `json:"created"`
		Go      string          `json:"go"`
		GOOS    string          `json:"goos"`
		GOARCH  string          `json:"goarch"`
		CPUs    int             `json:"cpus"`
		Config  benchConfig     `json:"config"`
		Results []strategyEntry `json:"results"`
	}{
		Name:    "strategy",
		Created: time.Now().UTC().Format(time.RFC3339),
		Go:      runtime.Version(),
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		CPUs:    runtime.NumCPU(),
		Config:  benchConfig{StreamSize: o.StreamSize, Reps: o.Reps},
	}
	for _, row := range rows {
		out.Results = append(out.Results, strategyEntry{
			Benchmark:   fmt.Sprintf("strategy/%s", row.Workload),
			Strategies:  row.Strategies,
			Groups:      row.Groups,
			Matches:     row.Matches,
			LazyNsPerOp: row.LazyTime.Nanoseconds(),
			PlanNsPerOp: row.PlanTime.Nanoseconds(),
			Speedup:     row.Speedup,
		})
	}
	path := "BENCH_strategy.json"
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// writeAccelJSON records the Options.Accel on/off comparison as
// BENCH_accel.json, archived by CI next to BENCH_prefilter.json.
func writeAccelJSON(rows []accelRow, o experiments.Opts) (string, error) {
	out := struct {
		Name    string       `json:"name"`
		Created string       `json:"created"`
		Go      string       `json:"go"`
		GOOS    string       `json:"goos"`
		GOARCH  string       `json:"goarch"`
		CPUs    int          `json:"cpus"`
		Config  benchConfig  `json:"config"`
		Results []accelEntry `json:"results"`
	}{
		Name:    "accel",
		Created: time.Now().UTC().Format(time.RFC3339),
		Go:      runtime.Version(),
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		CPUs:    runtime.NumCPU(),
		Config:  benchConfig{StreamSize: o.StreamSize, Reps: o.Reps},
	}
	for _, row := range rows {
		out.Results = append(out.Results, accelEntry{
			Benchmark:   fmt.Sprintf("accel/%s/%s", row.Workload, row.Engine),
			SkippedFrac: row.SkippedFrac,
			AccelStates: row.AccelStates,
			Matches:     row.Matches,
			OffNsPerOp:  row.OffTime.Nanoseconds(),
			OnNsPerOp:   row.OnTime.Nanoseconds(),
			Speedup:     row.Speedup,
		})
	}
	path := "BENCH_accel.json"
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
