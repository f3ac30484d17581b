package experiments

import (
	"io"
	"time"

	"repro/internal/engine"
	"repro/internal/lazydfa"
	"repro/internal/metrics"
)

// LazyRow compares the lazy-DFA execution mode against iMFAnt (and 2-stride
// where buildable) on one dataset, fully merged (M = all), keep semantics.
type LazyRow struct {
	Abbr string
	// Classes is the byte-class alphabet width; cached rows are this wide
	// instead of 256.
	Classes int
	// States and Flushes describe the cache after the timed scans.
	States, Flushes int
	// FellBack reports whether any scan abandoned the cache for iMFAnt.
	FellBack bool
	// IMFAntTime, StrideTime and LazyTime are single-thread scan latencies.
	// LazyTime is measured warm: one untimed scan populates the cache first,
	// matching the steady state of a long-lived Scanner/StreamMatcher.
	IMFAntTime, StrideTime, LazyTime time.Duration
	// SpeedupIMFAnt is IMFAntTime / LazyTime; SpeedupStride likewise (0 when
	// the 2-stride table blew up).
	SpeedupIMFAnt, SpeedupStride float64
}

// Lazy evaluates the hybrid lazy-DFA execution mode: on-the-fly subset
// construction over iMFAnt activation vectors with a byte-class-compressed
// bounded transition cache. It reports the cache footprint next to the
// speedup over the interpreted engines — the DFA-speed-at-MFSA-size
// trade-off the mode is built for.
func (r *Runner) Lazy(w io.Writer) ([]LazyRow, error) {
	var rows []LazyRow
	tb := metrics.NewTable("Lazy DFA — warm-cache vs iMFAnt and 2-stride (M = all, keep)",
		"Dataset", "Classes", "States", "Flushes", "IMFAntTime", "StrideTime", "LazyTime", "vs iMFAnt", "vs 2-stride")
	for _, s := range r.specs {
		out, err := r.compiled(s, 0)
		if err != nil {
			return nil, err
		}
		z := out.MFSAs[0]
		in := r.stream(s)
		cfg := engine.Config{KeepOnMatch: true}

		p := engine.NewProgram(z)
		runner := engine.NewRunner(p)
		start := time.Now()
		for rep := 0; rep < r.o.Reps; rep++ {
			runner.Run(in, cfg)
		}
		row := LazyRow{Abbr: s.Abbr}
		row.IMFAntTime = time.Since(start) / time.Duration(r.o.Reps)

		strideCell := any("-")
		if sp, err := engine.NewStrideProgram(z); err == nil {
			srunner := engine.NewStrideRunner(sp)
			start = time.Now()
			for rep := 0; rep < r.o.Reps; rep++ {
				srunner.Run(in, cfg)
			}
			row.StrideTime = time.Since(start) / time.Duration(r.o.Reps)
			strideCell = row.StrideTime
		}

		m := lazydfa.New(p, lazydfa.Options{KeepOnMatch: true})
		row.Classes = m.NumClasses()
		lrunner := lazydfa.NewRunner(m)
		lcfg := lazydfa.Config{}
		lrunner.Run(in, lcfg) // warm the cache
		start = time.Now()
		var res lazydfa.Result
		for rep := 0; rep < r.o.Reps; rep++ {
			res = lrunner.Run(in, lcfg)
		}
		row.LazyTime = time.Since(start) / time.Duration(r.o.Reps)
		row.States = res.CachedStates
		row.Flushes = res.Flushes
		row.FellBack = res.FellBack
		row.SpeedupIMFAnt = float64(row.IMFAntTime) / float64(row.LazyTime)
		strideSpeed := any("-")
		if row.StrideTime > 0 {
			row.SpeedupStride = float64(row.StrideTime) / float64(row.LazyTime)
			strideSpeed = row.SpeedupStride
		}
		rows = append(rows, row)
		tb.AddRow(row.Abbr, row.Classes, row.States, row.Flushes,
			row.IMFAntTime, strideCell, row.LazyTime,
			row.SpeedupIMFAnt, strideSpeed)
	}
	if w != nil {
		tb.Render(w)
	}
	return rows, nil
}
