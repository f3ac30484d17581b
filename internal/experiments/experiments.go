// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI): Fig. 1 (dataset similarity), Table I (dataset
// characteristics), Fig. 7 (compression vs merging factor), Fig. 8
// (compilation stage times), Table II (run-time active FSAs), Fig. 9
// (single-thread execution time and throughput) and Fig. 10 (multi-thread
// scaling). The cmd/mfsabench tool and the repository-level benchmarks are
// thin wrappers over this package.
package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/similarity"
)

// Opts scales the experiments. The paper's full configuration (1 MB
// streams, 15–30 reps, threads to 128) takes hours; the defaults reproduce
// every trend in minutes.
type Opts struct {
	// Datasets restricts the run to these abbreviations; nil = all six.
	Datasets []string
	// Ms are the merging factors; 0 denotes the paper's "all".
	Ms []int
	// Threads is the Fig. 10 thread sweep.
	Threads []int
	// StreamSize is the matched input size in bytes (paper: 1 MB).
	StreamSize int
	// Reps averages repeated measurements (paper: 30 for compilation,
	// 15 for execution).
	Reps int
	// SimilaritySample caps the patterns per dataset used for the
	// O(n²)-pairs Fig. 1 computation; 0 = all.
	SimilaritySample int
}

// Default returns the scaled-down configuration used by the CLI unless
// overridden: every trend of the paper at a laptop-friendly cost.
func Default() Opts {
	return Opts{
		Ms:               []int{1, 2, 5, 10, 20, 50, 100, 0},
		Threads:          []int{1, 2, 4, 8, 16, 32, 64, 128},
		StreamSize:       256 << 10,
		Reps:             3,
		SimilaritySample: 120,
	}
}

// Paper returns the paper's full-scale configuration.
func Paper() Opts {
	o := Default()
	o.StreamSize = 1 << 20
	o.Reps = 15
	o.SimilaritySample = 0
	return o
}

// Runner caches compiled rulesets and input streams across experiments.
type Runner struct {
	o       Opts
	specs   []dataset.Spec
	outputs map[string]*pipeline.Output // key: abbr/M
	streams map[string][]byte
}

// New builds a Runner for the given options.
func New(o Opts) (*Runner, error) {
	if len(o.Ms) == 0 {
		o.Ms = Default().Ms
	}
	if len(o.Threads) == 0 {
		o.Threads = Default().Threads
	}
	if o.StreamSize <= 0 {
		o.StreamSize = Default().StreamSize
	}
	if o.Reps <= 0 {
		o.Reps = 1
	}
	r := &Runner{
		o:       o,
		outputs: make(map[string]*pipeline.Output),
		streams: make(map[string][]byte),
	}
	if len(o.Datasets) == 0 {
		r.specs = dataset.Datasets()
	} else {
		for _, abbr := range o.Datasets {
			s, err := dataset.ByAbbr(abbr)
			if err != nil {
				return nil, err
			}
			r.specs = append(r.specs, s)
		}
	}
	return r, nil
}

// mLabel renders a merging factor the way the paper does.
func mLabel(m int) string {
	if m <= 0 {
		return "all"
	}
	return fmt.Sprintf("%d", m)
}

func (r *Runner) compiled(s dataset.Spec, m int) (*pipeline.Output, error) {
	key := fmt.Sprintf("%s/%d", s.Abbr, m)
	if out, ok := r.outputs[key]; ok {
		return out, nil
	}
	out, err := pipeline.Compile(s.Patterns(), m, nil)
	if err != nil {
		return nil, fmt.Errorf("%s (M=%s): %w", s.Abbr, mLabel(m), err)
	}
	r.outputs[key] = out
	return out, nil
}

func (r *Runner) stream(s dataset.Spec) []byte {
	if in, ok := r.streams[s.Abbr]; ok {
		return in
	}
	in := s.Stream(r.o.StreamSize, 0)
	r.streams[s.Abbr] = in
	return in
}

func (r *Runner) programs(s dataset.Spec, m int) ([]*engine.Program, error) {
	out, err := r.compiled(s, m)
	if err != nil {
		return nil, err
	}
	ps := make([]*engine.Program, len(out.MFSAs))
	for i, z := range out.MFSAs {
		ps[i] = engine.NewProgram(z)
	}
	return ps, nil
}

// Fig1Row is one bar of Fig. 1.
type Fig1Row struct {
	Abbr       string
	Similarity float64
}

// Fig1 computes the average normalized INDEL similarity per dataset.
func (r *Runner) Fig1(w io.Writer) ([]Fig1Row, error) {
	rows := make([]Fig1Row, 0, len(r.specs))
	tb := metrics.NewTable("Fig. 1 — average normalized INDEL similarity per dataset",
		"Dataset", "Similarity")
	for _, s := range r.specs {
		pats := s.Patterns()
		if n := r.o.SimilaritySample; n > 0 && len(pats) > n {
			pats = pats[:n]
		}
		sim := similarity.DatasetSimilarity(pats)
		rows = append(rows, Fig1Row{Abbr: s.Abbr, Similarity: sim})
		tb.AddRow(s.Abbr, sim)
	}
	if w != nil {
		tb.Render(w)
	}
	return rows, nil
}

// Table1Row is one dataset's characteristics (Table I).
type Table1Row struct {
	Abbr                string
	NumREs              int
	TotStates, TotTrans int
	TotCC               int
	AvgStates, AvgTrans float64
}

// Table1 measures the post-optimization FSA characteristics per dataset.
func (r *Runner) Table1(w io.Writer) ([]Table1Row, error) {
	rows := make([]Table1Row, 0, len(r.specs))
	tb := metrics.NewTable("Table I — dataset characteristics (optimized single FSAs)",
		"Dataset", "REs", "TotStates", "TotTrans", "TotCC", "AvgStates", "AvgTrans")
	for _, s := range r.specs {
		out, err := r.compiled(s, 1)
		if err != nil {
			return nil, err
		}
		row := Table1Row{Abbr: s.Abbr, NumREs: len(out.FSAs)}
		for _, a := range out.FSAs {
			row.TotStates += a.NumStates
			row.TotTrans += len(a.Trans)
			row.TotCC += a.CCLen()
		}
		row.AvgStates = float64(row.TotStates) / float64(row.NumREs)
		row.AvgTrans = float64(row.TotTrans) / float64(row.NumREs)
		rows = append(rows, row)
		tb.AddRow(row.Abbr, row.NumREs, row.TotStates, row.TotTrans, row.TotCC, row.AvgStates, row.AvgTrans)
	}
	if w != nil {
		tb.Render(w)
	}
	return rows, nil
}

// Fig7Row is one dataset/M compression point.
type Fig7Row struct {
	Abbr      string
	M         int
	StatesPct float64
	TransPct  float64
}

// Fig7 computes state and transition compression for every merging factor.
func (r *Runner) Fig7(w io.Writer) ([]Fig7Row, error) {
	var rows []Fig7Row
	tb := metrics.NewTable("Fig. 7 — compression vs merging factor (higher is better)",
		"Dataset", "M", "States%", "Trans%")
	for _, s := range r.specs {
		for _, m := range r.o.Ms {
			if m == 1 {
				continue // M = 1 is the baseline: 0% by definition
			}
			out, err := r.compiled(s, m)
			if err != nil {
				return nil, err
			}
			c := metrics.MeasureCompression(out.FSAs, out.MFSAs)
			row := Fig7Row{Abbr: s.Abbr, M: m, StatesPct: c.StatesPct(), TransPct: c.TransPct()}
			rows = append(rows, row)
			tb.AddRow(s.Abbr, mLabel(m), row.StatesPct, row.TransPct)
		}
	}
	if w != nil {
		tb.Render(w)
	}
	return rows, nil
}

// Fig8Row is one dataset/M stage-time measurement.
type Fig8Row struct {
	Abbr  string
	M     int
	Times pipeline.StageTimes
}

// Fig8 measures the per-stage compilation time, averaged over Reps runs.
func (r *Runner) Fig8(w io.Writer) ([]Fig8Row, error) {
	var rows []Fig8Row
	tb := metrics.NewTable("Fig. 8 — compilation stage times (lower is better)",
		"Dataset", "M", "FE", "AST→FSA", "ME-single", "ME-merging", "BE", "Total")
	for _, s := range r.specs {
		pats := s.Patterns()
		for _, m := range r.o.Ms {
			var acc pipeline.StageTimes
			for rep := 0; rep < r.o.Reps; rep++ {
				out, err := pipeline.Compile(pats, m, nil)
				if err != nil {
					return nil, fmt.Errorf("%s (M=%s): %w", s.Abbr, mLabel(m), err)
				}
				acc.Add(out.Times)
			}
			avg := acc.Scale(r.o.Reps)
			rows = append(rows, Fig8Row{Abbr: s.Abbr, M: m, Times: avg})
			tb.AddRow(s.Abbr, mLabel(m), avg.FrontEnd, avg.ASTToFSA, avg.SingleME, avg.MergeME, avg.BackEnd, avg.Total())
		}
	}
	if w != nil {
		tb.Render(w)
	}
	return rows, nil
}

// Table2Row is one dataset's run-time activity (Table II, M = all).
type Table2Row struct {
	Abbr      string
	AvgActive float64
	MaxActive int
}

// Table2 measures the average and maximum number of active FSAs during the
// traversal of the fully merged MFSA.
func (r *Runner) Table2(w io.Writer) ([]Table2Row, error) {
	rows := make([]Table2Row, 0, len(r.specs))
	tb := metrics.NewTable("Table II — active FSAs during MFSA traversal (M = all)",
		"Dataset", "AvgActive", "MaxActive")
	for _, s := range r.specs {
		ps, err := r.programs(s, 0)
		if err != nil {
			return nil, err
		}
		in := r.stream(s)
		var pairs int64
		max := 0
		for _, p := range ps {
			res := engine.Run(p, in, engine.Config{Stats: true})
			pairs += res.ActivePairsTotal
			if res.MaxActiveFSAs > max {
				max = res.MaxActiveFSAs
			}
		}
		row := Table2Row{Abbr: s.Abbr, AvgActive: float64(pairs) / float64(len(in)), MaxActive: max}
		rows = append(rows, row)
		tb.AddRow(row.Abbr, row.AvgActive, row.MaxActive)
	}
	if w != nil {
		tb.Render(w)
	}
	return rows, nil
}

// Fig9Row is one dataset/M single-thread execution point.
type Fig9Row struct {
	Abbr string
	M    int
	// ExeTime is the total single-thread latency to execute all the
	// MFSAs of the configuration over the stream.
	ExeTime time.Duration
	// Throughput is #MFSA·M·Dsize/ExeTime in RE·bytes/s.
	Throughput float64
	// Improvement is Throughput relative to the M=1 configuration.
	Improvement float64
}

// Fig9 measures single-threaded execution time and throughput improvement
// across merging factors.
func (r *Runner) Fig9(w io.Writer) ([]Fig9Row, error) {
	var rows []Fig9Row
	tb := metrics.NewTable("Fig. 9 — single-thread execution (1 thread, stream scan)",
		"Dataset", "M", "ExeTime", "Throughput(RE·B/s)", "Improvement")
	for _, s := range r.specs {
		in := r.stream(s)
		base := -1.0
		for _, m := range r.o.Ms {
			ps, err := r.programs(s, m)
			if err != nil {
				return nil, err
			}
			elapsed := r.timeSequential(ps, in)
			mEff := m
			if mEff <= 0 {
				mEff = len(s.Patterns())
			}
			th := metrics.Throughput(len(ps), mEff, len(in), elapsed)
			row := Fig9Row{Abbr: s.Abbr, M: m, ExeTime: elapsed, Throughput: th}
			if m == 1 {
				base = th
			}
			if base > 0 {
				row.Improvement = th / base
			}
			rows = append(rows, row)
			tb.AddRow(s.Abbr, mLabel(m), row.ExeTime, fmt.Sprintf("%.3g", row.Throughput), row.Improvement)
		}
	}
	if w != nil {
		tb.Render(w)
		r.renderFig9Summary(w, rows)
	}
	return rows, nil
}

func (r *Runner) renderFig9Summary(w io.Writer, rows []Fig9Row) {
	// Geomean improvement per M, and best-configuration geomean — the
	// headline 5.99× of the paper.
	perM := map[int][]float64{}
	best := map[string]float64{}
	for _, row := range rows {
		if row.M != 1 {
			perM[row.M] = append(perM[row.M], row.Improvement)
		}
		if row.Improvement > best[row.Abbr] {
			best[row.Abbr] = row.Improvement
		}
	}
	tb := metrics.NewTable("Fig. 9 summary — geomean throughput improvement vs M=1",
		"M", "Geomean")
	for _, m := range r.o.Ms {
		if vals, ok := perM[m]; ok {
			tb.AddRow(mLabel(m), metrics.GeoMean(vals))
		}
	}
	var bests []float64
	for _, v := range best {
		bests = append(bests, v)
	}
	tb.AddRow("best", metrics.GeoMean(bests))
	tb.Render(w)
}

// timeSequential runs every program over the input on one goroutine,
// averaged over Reps, returning the total latency. Runner state is reused
// across reps, as the paper's repeated measurements would.
func (r *Runner) timeSequential(ps []*engine.Program, in []byte) time.Duration {
	return r.timeThreads(newRunners(ps), in, 1)
}

// newRunners returns one reusable engine Runner per program.
func newRunners(ps []*engine.Program) []*engine.Runner {
	runners := make([]*engine.Runner, len(ps))
	for i, p := range ps {
		runners[i] = engine.NewRunner(p)
	}
	return runners
}

// timeThreads runs every runner over the input on `threads` workers with
// the work-queue scheme of §VI-C2, averaged over Reps.
func (r *Runner) timeThreads(runners []*engine.Runner, in []byte, threads int) time.Duration {
	ids := make([]int, len(runners))
	for i := range ids {
		ids[i] = i
	}
	var total time.Duration
	for rep := 0; rep < r.o.Reps; rep++ {
		start := time.Now()
		engine.ForEach(ids, threads, nil, nil, func(i int, _ func() error) error {
			runners[i].Run(in, engine.Config{})
			return nil
		})
		total += time.Since(start)
	}
	return total / time.Duration(r.o.Reps)
}

// Fig10Row is one dataset/M/T multi-thread execution point.
type Fig10Row struct {
	Abbr    string
	M       int
	Threads int
	ExeTime time.Duration
}

// Fig10 sweeps merging factors × thread counts with the work-pool executor
// and prints the per-dataset best-configuration speedup summary (the
// paper's 4.05× geomean) and the thread-utilization highlight.
func (r *Runner) Fig10(w io.Writer) ([]Fig10Row, error) {
	var rows []Fig10Row
	tb := metrics.NewTable("Fig. 10 — multi-thread execution time",
		"Dataset", "M", "T", "ExeTime")
	for _, s := range r.specs {
		in := r.stream(s)
		for _, m := range r.o.Ms {
			ps, err := r.programs(s, m)
			if err != nil {
				return nil, err
			}
			runners := newRunners(ps)
			for _, t := range r.o.Threads {
				elapsed := r.timeThreads(runners, in, t)
				rows = append(rows, Fig10Row{Abbr: s.Abbr, M: m, Threads: t, ExeTime: elapsed})
				tb.AddRow(s.Abbr, mLabel(m), t, elapsed)
			}
		}
	}
	if w != nil {
		tb.Render(w)
		renderFig10Summary(w, rows)
	}
	return rows, nil
}

func renderFig10Summary(w io.Writer, rows []Fig10Row) {
	type best struct {
		time  time.Duration
		m, t  int
		found bool
	}
	baseline := map[string]best{} // best M=1 config per dataset
	merged := map[string]best{}   // best M>1 config per dataset
	for _, row := range rows {
		tgt := merged
		if row.M == 1 {
			tgt = baseline
		} else if row.M == 1 {
			continue
		}
		b := tgt[row.Abbr]
		if !b.found || row.ExeTime < b.time {
			tgt[row.Abbr] = best{time: row.ExeTime, m: row.M, t: row.Threads, found: true}
		}
	}
	tb := metrics.NewTable("Fig. 10 summary — best multi-thread MFSA vs best multi-thread FSAs",
		"Dataset", "Best M=1", "Best M>1", "Speedup", "LeastThreads≤M=1")
	var speedups []float64
	for abbr, b1 := range baseline {
		bm, ok := merged[abbr]
		if !ok {
			continue
		}
		speedup := float64(b1.time) / float64(bm.time)
		speedups = append(speedups, speedup)
		// Thread-utilization: least-thread merged config at least as
		// fast as the best M=1 config.
		leastT := -1
		for _, row := range rows {
			if row.Abbr != abbr || row.M == 1 {
				continue
			}
			if row.ExeTime <= b1.time && (leastT < 0 || row.Threads < leastT) {
				leastT = row.Threads
			}
		}
		tb.AddRow(abbr,
			fmt.Sprintf("T=%d %v", b1.t, b1.time.Round(time.Microsecond)),
			fmt.Sprintf("M=%s T=%d %v", mLabel(bm.m), bm.t, bm.time.Round(time.Microsecond)),
			speedup,
			leastT)
	}
	tb.AddRow("geomean", "", "", metrics.GeoMean(speedups), "")
	tb.Render(w)
}

// All runs every experiment in paper order.
func (r *Runner) All(w io.Writer) error {
	steps := []func(io.Writer) error{
		func(w io.Writer) error { _, err := r.Fig1(w); return err },
		func(w io.Writer) error { _, err := r.Table1(w); return err },
		func(w io.Writer) error { _, err := r.Fig7(w); return err },
		func(w io.Writer) error { _, err := r.Fig8(w); return err },
		func(w io.Writer) error { _, err := r.Table2(w); return err },
		func(w io.Writer) error { _, err := r.Fig9(w); return err },
		func(w io.Writer) error { _, err := r.Fig10(w); return err },
	}
	for i, step := range steps {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := step(w); err != nil {
			return err
		}
	}
	return nil
}
