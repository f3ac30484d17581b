package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	imfant "repro"
	"repro/internal/experiments"
	"repro/internal/metrics"
)

// accelRules is a snort-shaped web-attack ruleset sharing the '/' start
// byte — the hub shape of the hot-state study, where a single prefix state
// absorbed 11% of sampled visits. Every rule's merged group therefore has a
// one-byte live set at the restart state, the best case for state
// acceleration and the representative one for URI-anchored IDS rules.
var accelRules = []string{
	"/cgi-bin/phf", "/etc/passwd", "/bin/sh", "/usr/bin/id",
	"/admin/login", "/cmd\\.exe", "/scripts/.*\\.asp", "/wp-admin/",
	"/robots\\.txt", "/config\\.php", "/\\.git/HEAD", "/phpmyadmin",
	"/xmlrpc\\.php", "/cgi-bin/test-cgi", "/shell\\.php", "/dvwa/",
	"/\\.env", "/server-status", "/setup\\.cgi", "/horde/",
}

// accelRow is one (workload, engine) measurement of the Options.Accel study.
type accelRow struct {
	// Workload is "nomatch" (loop-dominated, the restart state holds for
	// the whole stream) or "dense" (URI-heavy traffic with planted rule
	// bodies, the match-dense regression guard).
	Workload string
	// Engine is "lazydfa" or "imfant".
	Engine string
	// OffTime and OnTime are single-thread whole-ruleset scan latencies
	// with Options.Accel off and on; Speedup is their ratio.
	OffTime, OnTime time.Duration
	Speedup         float64
	// SkippedFrac is accelerated-jump bytes over scanned bytes, in [0, 1].
	SkippedFrac float64
	// AccelStates is the accelerable cached-state gauge after the accel-on
	// runs (lazy engine only).
	AccelStates int64
	// Matches is the per-scan match count (identical on and off — checked).
	Matches int64
}

// accelStream builds the study's two traffic profiles. The no-match stream
// contains no '/' at all, so the automata never leave their restart states;
// the dense stream interleaves URI fragments and planted rule bodies, so
// acceleration engages only between matches.
func accelStream(size int, dense bool) []byte {
	rng := rand.New(rand.NewSource(0xACCE1))
	out := make([]byte, 0, size+64)
	if !dense {
		const filler = "GET index.html HTTP 1.1 Host: example.com Accept: text,html "
		for len(out) < size {
			out = append(out, filler...)
		}
		return out[:size]
	}
	frags := []string{
		"GET /etc/passwd HTTP/1.0\r\n", "POST /admin/login\r\n",
		"/cgi-bin/phf?Qalias=x", "/wp-admin/setup", "/robots.txt ",
		"Host: a/b/c.d\r\n", "/xmlrpc.php ", "/usr/bin/id;",
	}
	for len(out) < size {
		out = append(out, frags[rng.Intn(len(frags))]...)
	}
	return out[:size]
}

// runAccel measures Options.Accel on vs off on the production scan path:
// same ruleset compiled twice, scanned over a loop-dominated no-match stream
// (the headline case — the lazy engine should ride the skip kernel for the
// whole stream) and over match-dense traffic (the regression guard — jumps
// are short, the kernel must not cost more than it saves). The prefilter is
// off in every configuration so the study isolates acceleration.
func runAccel(w io.Writer, o experiments.Opts) ([]accelRow, error) {
	const mergeFactor = 10
	var rows []accelRow
	tb := metrics.NewTable("Accel — Options.Accel on vs off (M = 10, prefilter off, production scan path)",
		"Workload", "Engine", "Skipped", "AccelStates", "OffTime", "OnTime", "Speedup")
	for _, workload := range []string{"nomatch", "dense"} {
		in := accelStream(o.StreamSize, workload == "dense")
		for _, eng := range []struct {
			name string
			mode imfant.EngineMode
		}{
			{"lazydfa", imfant.EngineLazyDFA},
			{"imfant", imfant.EngineIMFAnt},
		} {
			base := imfant.Options{
				MergeFactor: mergeFactor, KeepOnMatch: true,
				Engine: eng.mode, Prefilter: imfant.PrefilterOff,
			}
			offOpts, onOpts := base, base
			offOpts.Accel = imfant.AccelOff
			off, err := imfant.Compile(accelRules, offOpts)
			if err != nil {
				return nil, err
			}
			on, err := imfant.Compile(accelRules, onOpts)
			if err != nil {
				return nil, err
			}

			offScan := off.NewScanner()
			var offMatches int64
			start := time.Now()
			for rep := 0; rep < o.Reps; rep++ {
				offMatches = offScan.Count(in)
			}
			offTime := time.Since(start) / time.Duration(o.Reps)

			onScan := on.NewScanner()
			var onMatches int64
			start = time.Now()
			for rep := 0; rep < o.Reps; rep++ {
				onMatches = onScan.Count(in)
			}
			onTime := time.Since(start) / time.Duration(o.Reps)

			if onMatches != offMatches {
				return nil, fmt.Errorf("accel %s/%s: %d matches on, %d off",
					workload, eng.name, onMatches, offMatches)
			}
			row := accelRow{
				Workload: workload, Engine: eng.name,
				OffTime: offTime, OnTime: onTime,
				Speedup: float64(offTime) / float64(onTime),
				Matches: onMatches,
			}
			if st := onScan.Stats(); st.Accel != nil && st.BytesScanned > 0 {
				row.SkippedFrac = float64(st.Accel.BytesSkipped) / float64(st.BytesScanned)
				row.AccelStates = st.Accel.AccelStates
			}
			rows = append(rows, row)
			tb.AddRow(row.Workload, row.Engine,
				fmt.Sprintf("%.1f%%", 100*row.SkippedFrac), row.AccelStates,
				row.OffTime, row.OnTime, row.Speedup)
		}
	}
	if w != nil {
		tb.Render(w)
	}
	return rows, nil
}
