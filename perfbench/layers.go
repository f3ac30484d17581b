package main

import (
	"context"
	"fmt"
	"io"
	"time"

	imfant "repro"
	"repro/internal/anml"
	"repro/internal/engine"
	"repro/internal/factor"
	"repro/internal/lazydfa"
	"repro/internal/mfsa"
	"repro/internal/nfa"
	"repro/internal/pipeline"
	"repro/internal/rex"
	"repro/internal/strategy"
)

// compileLayers calls each compile module's public function in pipeline
// order on every rule list, timing each stage under its own span, and
// returns the programs it built, per list, for the engine probe.
func compileLayers(r *run, lists []ruleList) ([][]*engine.Program, error) {
	times := map[string]time.Duration{}
	timed := func(name string, parent int32, fn func() error) error {
		id := r.tr.begin(name, parent)
		t0 := time.Now()
		err := fn()
		times[name] += time.Since(t0)
		r.tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	var progs [][]*engine.Program
	for _, l := range lists {
		root := r.tr.begin("compile_layers."+l.name, 0)
		asts := make([]*rex.Node, len(l.patterns))
		fsas := make([]*nfa.NFA, len(l.patterns))
		var zs []*mfsa.MFSA
		var ps []*engine.Program
		steps := []struct {
			name string
			fn   func() error
		}{
			{"rex.parse_ms", func() (err error) {
				for i, p := range l.patterns {
					if asts[i], err = rex.Parse(p); err != nil {
						return err
					}
				}
				return nil
			}},
			{"factor.extract_ms", func() error {
				for _, a := range asts {
					factor.Extract(a, factor.MinLen)
				}
				return nil
			}},
			{"strategy.classify_ms", func() error {
				for _, a := range asts {
					strategy.Classify(a)
				}
				return nil
			}},
			{"nfa.build_ms", func() (err error) {
				for i, a := range asts {
					if fsas[i], err = nfa.Build(a); err != nil {
						return err
					}
					fsas[i].ID, fsas[i].Pattern = i, l.patterns[i]
				}
				return nil
			}},
			{"nfa.optimize_ms", func() error {
				for _, a := range fsas {
					if err := nfa.Optimize(a); err != nil {
						return err
					}
				}
				return nil
			}},
			{"mfsa.merge_ms", func() (err error) {
				zs, err = mfsa.MergeGroupsWith(fsas, l.opts.MergeFactor, mfsa.GroupOptions{
					MaxTotalStates: pipeline.DefaultMaxMFSAStates, KeepRuleIDs: true,
				})
				return err
			}},
			{"anml.write_ms", func() error {
				for _, z := range zs {
					if err := anml.Write(io.Discard, z); err != nil {
						return err
					}
				}
				return nil
			}},
			{"engine.program_ms", func() error {
				for _, z := range zs {
					ps = append(ps, engine.NewProgram(z))
				}
				return nil
			}},
			{"lazydfa.new_ms", func() error {
				for _, p := range ps {
					lazydfa.New(p)
				}
				return nil
			}},
		}
		for _, s := range steps {
			if err := timed(s.name, root, s.fn); err != nil {
				return nil, fmt.Errorf("compile layers of %s: %w", l.name, err)
			}
		}
		r.tr.end(root)
		progs = append(progs, ps)
	}
	for name, d := range times {
		r.set(name, "ms", ms(d))
	}
	return progs, nil
}

// engineProbe times engine.Run over every group whose strategy is one of
// the general engines (imfant, lazydfa), on the workload's probe inputs.
func engineProbe(r *run, progs [][]*engine.Program, rss []*imfant.Ruleset, inputs [][]byte, keep bool) error {
	id := r.tr.begin("engine.run", 0)
	defer r.tr.end(id)
	var elapsed time.Duration
	var bytes, activePairs int64
	for li, ps := range progs {
		strats := rss[li].Strategies()
		if len(strats) != len(ps) {
			return fmt.Errorf("engine probe: %d groups compiled, %d planned", len(ps), len(strats))
		}
		for gi, p := range ps {
			if s := strats[gi]; s != imfant.StrategyIMFAnt && s != imfant.StrategyLazyDFA {
				continue
			}
			for _, in := range inputs {
				t0 := time.Now()
				engine.Run(p, in, engine.Config{KeepOnMatch: keep, Accel: true})
				elapsed += time.Since(t0)
				res := engine.Run(p, in, engine.Config{KeepOnMatch: keep, Stats: true})
				bytes += int64(len(in))
				activePairs += res.ActivePairsTotal
			}
		}
	}
	r.set("engine.ns_per_byte", "ns/B", ratio(float64(elapsed), float64(bytes)))
	r.set("engine.avg_active", "count", ratio(float64(activePairs), float64(bytes)))
	return nil
}

// reportProbe prices match reporting: FindAllContext minus Count on the
// same inputs with the same scanner, per match, over alternating reps.
func reportProbe(r *run, rss []*imfant.Ruleset, inputs [][]byte) {
	id := r.tr.begin("imfant.report_probe", 0)
	defer r.tr.end(id)
	ctx := context.Background()
	var diffs []float64
	for rep := 0; rep < 3; rep++ {
		var find, count time.Duration
		var matches int64
		for _, rs := range rss {
			sc := rs.NewScanner()
			t0 := time.Now()
			for _, in := range inputs {
				r.attempted++
				ms, err := sc.FindAllContext(ctx, in)
				if err != nil {
					r.fail("report probe: %v", err)
				}
				matches += int64(len(ms))
			}
			find += time.Since(t0)
			t0 = time.Now()
			for _, in := range inputs {
				sc.Count(in)
			}
			count += time.Since(t0)
		}
		diffs = append(diffs, ratio(float64(find-count), float64(matches)))
	}
	r.sample("imfant.report_ns_per_match", diffs)
	r.set("imfant.report_ns_per_match", "ns", median(diffs))
}

// registryCycles prices the Registry's own steps on each rule list: a
// Compile of the same rules, the Swap that installs it, and the DrainOld
// that waits out the superseded version.
func registryCycles(r *run, lists []ruleList, rss []*imfant.Ruleset) {
	id := r.tr.begin("registry.cycles", 0)
	defer r.tr.end(id)
	var compile, swap, drain []float64
	for i, l := range lists {
		reg := imfant.NewRegistryFrom(rss[i])
		for k := 0; k < r.sz.swaps; k++ {
			r.attempted++
			t0 := time.Now()
			rs, err := imfant.Compile(l.patterns, l.opts)
			t1 := time.Now()
			if err != nil {
				r.fail("registry compile %s: %v", l.name, err)
				continue
			}
			reg.Swap(rs)
			t2 := time.Now()
			err = reg.DrainOld(context.Background())
			t3 := time.Now()
			if err != nil {
				r.fail("registry drain %s: %v", l.name, err)
			}
			r.tr.record("registry.compile", id, t0, t1.Sub(t0))
			r.tr.record("registry.swap", id, t1, t2.Sub(t1))
			r.tr.record("registry.drain", id, t2, t3.Sub(t2))
			compile = append(compile, ms(t1.Sub(t0)))
			swap = append(swap, float64(t2.Sub(t1))/1e3)
			drain = append(drain, ms(t3.Sub(t2)))
		}
	}
	r.sample("registry.compile_ms", compile)
	r.set("registry.compile_ms", "ms", median(compile))
	r.set("registry.swap_us", "us", median(swap))
	r.set("registry.drain_ms", "ms", median(drain))
}

var strategyNames = []string{"ac", "anchored", "dfa", "imfant", "lazydfa"}

// scanLayers derives the prefilter, strategy, acceleration and obs
// metrics from the traced traffic's Stats() and scrape timings.
func scanLayers(r *run, traced []*imfant.Ruleset, tt *traffic) {
	f := sumStats(traced)
	scan := f.stageSum("scan") + f.stageSum("stream_write")
	r.set("ahocorasick.sweep_share", "ratio", ratio(f.stageSum("prefilter"), scan))
	r.set("prefilter.skip_ratio", "ratio", ratio(float64(f.prefilter.GroupsSkipped), float64(f.prefilter.GroupsSkipped+f.scans)))
	var all int64
	for _, b := range f.stratBytes {
		all += b
	}
	for _, s := range strategyNames {
		r.set("strategy."+s+".byte_share", "ratio", ratio(float64(f.stratBytes[s]), float64(all)))
		if st := f.stages["strategy_"+s]; st != nil && st.count > 0 {
			r.set("strategy."+s+".p50_us", "us", st.p50()/1e3)
		}
	}
	r.set("strategy.sweeps_disabled", "count", float64(f.sweepsOff))
	r.set("bytescan.skipped_ratio", "ratio", ratio(float64(f.accel.BytesSkipped), float64(f.bytes)))
	r.set("obs.metrics_us", "us", median(micros(tt.metricsT)))
	r.set("obs.statusz_us", "us", median(micros(tt.statusz)))
	r.set("obs.metrics_bytes", "B", median(tt.metricsBytes))
	r.set("telemetry.snapshot_us", "us", median(micros(tt.snapshot)))
}
