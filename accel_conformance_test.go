package imfant

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/faultpoint"
	"repro/internal/strategy"
)

// accelTraffic builds n bytes of benign HTTP-ish filler salted with pattern
// fragments, the traffic shape of the snort studies.
func accelTraffic(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	frags := []string{
		"Host: example.com\r\n", "User-Agent: Mozilla\r\n", "Accept: text\r\n",
		"GET /admin HTTP/1.0\r\n", "/etc/passwd", "/bin/sh77", "/usr/lib",
		"GET /logout", "/cgi-bin/x.pl",
	}
	var out []byte
	for len(out) < n {
		out = append(out, frags[rng.Intn(len(frags))]...)
	}
	return out[:n]
}

// TestSnortAccelAccounting pins the non-overlap invariant between the two
// byte-saving layers on the snort web-attacks ruleset: the prefilter's
// BytesSaved counts automaton executions that never ran, acceleration's
// BytesSkipped counts bytes inside executions that did run — so scanned and
// saved bytes partition the total automaton-byte volume exactly, and skipped
// bytes stay within the scanned share.
//
// The snort rules' one dot-star literal chain, `\.php\?.*=http\x3a//`, is
// left out: at MergeFactor 2 it forms a chain group, whose kill byte \n
// joins the literal pass and leaves the pass's root more live bytes than
// its skip takes, so no layer of this ruleset would skip a byte. The chain
// also sat in the one group whose factors this traffic lacks, so two rules
// whose factors it lacks (`/scripts/...`, `/winnt/...`) lead the ruleset and
// form a gated group in its place.
func TestSnortAccelAccounting(t *testing.T) {
	patterns := []string{`/scripts/[a-z]+\.exe`, `/winnt/system32/[a-z]+`}
	all := snortPatterns(t)
	for i, sh := range shapesOf(all) {
		if sh.Kind != strategy.KindChain {
			patterns = append(patterns, all[i])
		}
	}
	rs, _, err := CompileLax(patterns, Options{
		MergeFactor: 2, KeepOnMatch: true, Prefilter: PrefilterOn, Accel: AccelAuto,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rs.PrefilterActive() {
		t.Fatal("prefilter did not engage")
	}

	benign := accelTraffic(128<<10, 31)
	sc := rs.NewScanner()
	const scans = 3
	for i := 0; i < scans; i++ {
		sc.FindAllContext(t.Context(), benign)
	}
	st := sc.Stats()
	if st.Prefilter == nil || st.Accel == nil {
		t.Fatalf("missing stats sections: prefilter=%v accel=%v", st.Prefilter, st.Accel)
	}
	// Partition invariant: every (automaton, scan, byte) triple is either
	// scanned or saved, never both and never neither.
	total := int64(rs.NumAutomata()) * int64(len(benign)) * scans
	if got := st.BytesScanned + st.Prefilter.BytesSaved; got != total {
		t.Fatalf("BytesScanned %d + BytesSaved %d = %d, want %d (= automata × bytes × scans)",
			st.BytesScanned, st.Prefilter.BytesSaved, got, total)
	}
	if st.Prefilter.BytesSaved == 0 {
		t.Fatal("prefilter saved nothing on benign-heavy traffic")
	}
	// Skipped bytes live inside the scanned share — disjoint from saved.
	if st.Accel.BytesSkipped == 0 {
		t.Fatal("acceleration skipped nothing on the snort ruleset")
	}
	if st.Accel.BytesSkipped > st.BytesScanned {
		t.Fatalf("BytesSkipped %d exceeds BytesScanned %d — the layers overlap",
			st.Accel.BytesSkipped, st.BytesScanned)
	}
	t.Logf("automata=%d scans=%d: scanned %d + saved %d = %d; skipped %d (%.1f%% of scanned)",
		rs.NumAutomata(), scans, st.BytesScanned, st.Prefilter.BytesSaved, total,
		st.Accel.BytesSkipped, 100*float64(st.Accel.BytesSkipped)/float64(st.BytesScanned))

	// The strategy planner must have classified this ruleset (EngineAuto),
	// routing its all-literal groups to pure AC, and the per-strategy bytes
	// must partition BytesScanned exactly — strategy replacements count the
	// bytes they covered just like the engines they displaced.
	if st.Strategy == nil || !st.Strategy.Planned {
		t.Fatalf("Stats().Strategy = %+v, want a planned section", st.Strategy)
	}
	perStrategy := map[string]int64{}
	var stratBytes int64
	for _, g := range st.Strategy.Groups {
		perStrategy[g.Strategy] = g.Bytes
		stratBytes += g.Bytes
	}
	if stratBytes != st.BytesScanned {
		t.Fatalf("strategy bytes sum %d, want BytesScanned %d", stratBytes, st.BytesScanned)
	}
	if perStrategy["ac"] == 0 {
		t.Fatalf("no pure-AC group engaged on the snort ruleset: %+v", st.Strategy.Groups)
	}

	// The partition must survive the degradation ladder: an injected
	// thrash-fallback storm reroutes bytes through the iMFAnt fallback
	// engine mid-scan, yet every (automaton, scan, byte) triple is still
	// scanned or saved exactly once, and the match set is untouched.
	t.Run("injected-thrash", func(t *testing.T) {
		// The forced lazy engine keeps every group on the thrash ladder —
		// under the planner the literal-heavy snort groups route to AC/DFA
		// strategies, which have no cache to thrash.
		rs2, _, err := CompileLax(patterns, Options{
			MergeFactor: 2, KeepOnMatch: true, Prefilter: PrefilterOn, Accel: AccelAuto,
			Engine: EngineLazyDFA,
		})
		if err != nil {
			t.Fatal(err)
		}
		baseline, err := rs2.NewScanner().FindAllContext(t.Context(), benign)
		if err != nil {
			t.Fatal(err)
		}
		in := faultpoint.New(faultpoint.Every(faultpoint.LazyThrash, 2))
		rs2.setFaultInjector(in)
		sc2 := rs2.NewScanner()
		for i := 0; i < scans; i++ {
			got, err := sc2.FindAllContext(t.Context(), benign)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, baseline) {
				t.Fatalf("scan %d: injected fallback changed the match set", i)
			}
		}
		if in.Fired(faultpoint.LazyThrash) == 0 {
			t.Fatal("thrash schedule never fired")
		}
		st2 := sc2.Stats()
		total2 := int64(rs2.NumAutomata()) * int64(len(benign)) * scans
		if got := st2.BytesScanned + st2.Prefilter.BytesSaved; got != total2 {
			t.Fatalf("under injected thrash: BytesScanned %d + BytesSaved %d = %d, want %d",
				st2.BytesScanned, st2.Prefilter.BytesSaved, got, total2)
		}
		if st2.Degraded.ThrashFallbacks == 0 {
			t.Fatal("injected fallbacks not accounted in Degraded.ThrashFallbacks")
		}
		if st2.Accel.BytesSkipped > st2.BytesScanned {
			t.Fatalf("BytesSkipped %d exceeds BytesScanned %d under fallback",
				st2.Accel.BytesSkipped, st2.BytesScanned)
		}
	})

	// And it must survive hot-swap: scans routed through a Registry whose
	// current version is swapped between scans still partition each
	// version's byte volume exactly (one sweep per gated scan served).
	t.Run("mid-scan-swap", func(t *testing.T) {
		opts := Options{MergeFactor: 2, KeepOnMatch: true, Prefilter: PrefilterOn, Accel: AccelAuto}
		rsA, _, err := CompileLax(patterns, opts)
		if err != nil {
			t.Fatal(err)
		}
		rsB, _, err := CompileLax(patterns, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := rsA.FindAll(benign) // pre-swap oracle; rsB is rule-identical
		r := NewRegistryFrom(rsA)
		scansOf := map[string]int64{"A": 1, "B": 0} // the oracle scan
		for i := 0; i < 6; i++ {
			got := r.FindAll(benign)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("iteration %d: swap changed the match set", i)
			}
			if i%2 == 0 {
				scansOf["A"]++
				r.Swap(rsB)
			} else {
				scansOf["B"]++
				r.Swap(rsA)
			}
		}
		if err := r.DrainOld(t.Context()); err != nil {
			t.Fatal(err)
		}
		for name, rs := range map[string]*Ruleset{"A": rsA, "B": rsB} {
			st := rs.Stats()
			if st.Prefilter == nil || st.Prefilter.Sweeps == 0 {
				t.Fatalf("version %s served no gated scans", name)
			}
			// Sweeps counts literal passes executed — one per gated scan,
			// which also runs the AC groups — so the partition denominator
			// is the scan-call count the test tracked through the swaps.
			total := int64(rs.NumAutomata()) * int64(len(benign)) * scansOf[name]
			if got := st.BytesScanned + st.Prefilter.BytesSaved; got != total {
				t.Fatalf("version %s: BytesScanned %d + BytesSaved %d = %d, want %d (automata × bytes × %d scans)",
					name, st.BytesScanned, st.Prefilter.BytesSaved, got, total, scansOf[name])
			}
		}
	})
}
