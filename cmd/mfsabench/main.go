// Command mfsabench regenerates the tables and figures of the paper's
// evaluation (§VI) over the synthetic benchmark datasets.
//
// Usage:
//
//	mfsabench -all                      # every table and figure, scaled-down
//	mfsabench -fig 7 -fig 9             # selected figures
//	mfsabench -table 2 -datasets BRO,DS9
//	mfsabench -all -paper               # the paper's full-scale configuration
//	mfsabench -fig 10 -size 262144 -reps 3 -threads 1,2,4,8
//
// Figures/tables: 1 (INDEL similarity), 7 (compression), 8 (compilation
// stages), 9 (single-thread execution), 10 (multi-thread scaling); tables:
// 1 (dataset characteristics), 2 (active FSAs). Flags -size, -reps, -ms,
// -threads and -datasets scale any run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

type intList []int

func (l *intList) String() string { return fmt.Sprint([]int(*l)) }
func (l *intList) Set(s string) error {
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "all" {
			*l = append(*l, 0)
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return fmt.Errorf("bad integer %q", part)
		}
		*l = append(*l, v)
	}
	return nil
}

type strList []string

func (l *strList) String() string { return strings.Join(*l, ",") }
func (l *strList) Set(s string) error {
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			*l = append(*l, strings.ToUpper(part))
		}
	}
	return nil
}

func main() {
	var (
		figs, tables intList
		ms, threads  intList
		datasets     strList
		all          = flag.Bool("all", false, "run every table and figure")
		ablation     = flag.Bool("ablation", false, "run the merge-heuristic ablation study")
		baseline     = flag.Bool("baseline", false, "run the NFA/MFSA/DFA/D2FA representation comparison")
		ccrefine     = flag.Bool("ccrefine", false, "run the partial CC-merging (alphabet refinement) study")
		stride       = flag.Bool("stride", false, "run the 2-stride iMFAnt comparison")
		lazy         = flag.Bool("lazy", false, "run the lazy-DFA execution-mode comparison")
		clustering   = flag.Bool("clustering", false, "run the similarity-clustered grouping study")
		decomp       = flag.Bool("decompose", false, "run the literal-prefilter decomposition comparison")
		prefilter    = flag.Bool("prefilter", false, "run the production Options.Prefilter study and write BENCH_prefilter.json")
		accel        = flag.Bool("accel", false, "run the production Options.Accel study and write BENCH_accel.json")
		strategy     = flag.Bool("strategy", false, "run the strategy-planner study and write BENCH_strategy.json")
		obsStudy     = flag.Bool("obs", false, "run the observability-overhead study and write BENCH_obs.json")
		obsBound     = flag.Float64("obs-bound", 0, "with -obs: fail when latency-attribution overhead exceeds this ratio (0 = report only)")
		paper        = flag.Bool("paper", false, "use the paper's full-scale configuration (1 MB, 15 reps)")
		size         = flag.Int("size", 0, "stream size in bytes (default 256 KiB, or 1 MiB with -paper)")
		reps         = flag.Int("reps", 0, "measurement repetitions")
		plots        = flag.String("plots", "", "also render the figures as SVG charts into this directory")
		jsonName     = flag.String("json", "", "run the engine comparison and write BENCH_<name>.json for regression tracking")
	)
	flag.Var(&figs, "fig", "figure to regenerate (1, 7, 8, 9, 10); repeatable or comma-separated")
	flag.Var(&tables, "table", "table to regenerate (1, 2); repeatable or comma-separated")
	flag.Var(&ms, "ms", "merging factors, e.g. 1,2,5,10,all")
	flag.Var(&threads, "threads", "thread counts for figure 10, e.g. 1,2,4,8")
	flag.Var(&datasets, "datasets", "dataset abbreviations, e.g. BRO,DS9")
	flag.Parse()

	o := experiments.Default()
	if *paper {
		o = experiments.Paper()
	}
	if *size > 0 {
		o.StreamSize = *size
	}
	if *reps > 0 {
		o.Reps = *reps
	}
	if len(ms) > 0 {
		o.Ms = ms
	}
	if len(threads) > 0 {
		o.Threads = threads
	}
	o.Datasets = datasets

	r, err := experiments.New(o)
	if err != nil {
		fatal(err)
	}
	w := os.Stdout

	if *jsonName != "" {
		path, err := writeBenchJSON(r, o, *jsonName)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(w, "benchmark results written to %s\n", path)
		if len(figs) == 0 && len(tables) == 0 && !*all && !*lazy {
			return
		}
	}

	extrasOnly := (*ablation || *baseline || *ccrefine || *stride || *lazy || *clustering || *decomp || *prefilter || *accel || *strategy || *obsStudy) && len(figs) == 0 && len(tables) == 0 && !*all
	if *ablation {
		if _, err := r.Ablation(w); err != nil {
			fatal(err)
		}
		fmt.Fprintln(w)
	}
	if *baseline {
		if _, err := r.Baseline(w); err != nil {
			fatal(err)
		}
		fmt.Fprintln(w)
	}
	if *ccrefine {
		if _, err := r.CCRefine(w); err != nil {
			fatal(err)
		}
		fmt.Fprintln(w)
	}
	if *stride {
		if _, err := r.Stride(w); err != nil {
			fatal(err)
		}
		fmt.Fprintln(w)
	}
	if *lazy {
		if _, err := r.Lazy(w); err != nil {
			fatal(err)
		}
		fmt.Fprintln(w)
	}
	if *clustering {
		if _, err := r.Clustering(w); err != nil {
			fatal(err)
		}
		fmt.Fprintln(w)
	}
	if *decomp {
		if _, err := r.Decompose(w); err != nil {
			fatal(err)
		}
		fmt.Fprintln(w)
	}
	if *prefilter {
		rows, err := runPrefilter(w, o)
		if err != nil {
			fatal(err)
		}
		path, err := writePrefilterJSON(rows, o)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(w, "prefilter results written to %s\n\n", path)
	}
	if *accel {
		rows, err := runAccel(w, o)
		if err != nil {
			fatal(err)
		}
		path, err := writeAccelJSON(rows, o)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(w, "accel results written to %s\n\n", path)
	}
	if *strategy {
		rows, err := runStrategy(w, o)
		if err != nil {
			fatal(err)
		}
		path, err := writeStrategyJSON(rows, o)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(w, "strategy results written to %s\n\n", path)
	}
	if *obsStudy {
		rows, err := runObs(w, o, *obsBound)
		if rows != nil {
			// Write the artifact even when the gate fails, so CI archives
			// the numbers that tripped it.
			if path, werr := writeObsJSON(rows, o); werr == nil {
				fmt.Fprintf(w, "obs results written to %s\n\n", path)
			} else if err == nil {
				err = werr
			}
		}
		if err != nil {
			fatal(err)
		}
	}
	if extrasOnly {
		return
	}
	if *plots != "" {
		if err := r.Plots(*plots); err != nil {
			fatal(err)
		}
		fmt.Fprintf(w, "SVG charts written to %s\n", *plots)
		if len(figs) == 0 && len(tables) == 0 && !*all {
			return
		}
	}
	if *all || (len(figs) == 0 && len(tables) == 0) {
		if err := r.All(w); err != nil {
			fatal(err)
		}
		return
	}
	run := func(name string, f func() error) {
		if err := f(); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Fprintln(w)
	}
	for _, t := range tables {
		switch t {
		case 1:
			run("table 1", func() error { _, err := r.Table1(w); return err })
		case 2:
			run("table 2", func() error { _, err := r.Table2(w); return err })
		default:
			fatal(fmt.Errorf("unknown table %d (have 1, 2)", t))
		}
	}
	for _, f := range figs {
		switch f {
		case 1:
			run("fig 1", func() error { _, err := r.Fig1(w); return err })
		case 7:
			run("fig 7", func() error { _, err := r.Fig7(w); return err })
		case 8:
			run("fig 8", func() error { _, err := r.Fig8(w); return err })
		case 9:
			run("fig 9", func() error { _, err := r.Fig9(w); return err })
		case 10:
			run("fig 10", func() error { _, err := r.Fig10(w); return err })
		default:
			fatal(fmt.Errorf("unknown figure %d (have 1, 7, 8, 9, 10)", f))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
