package imfant

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faultpoint"
)

// The chaos conformance suite drives scheduled fault storms through the
// production degradation machinery and asserts the suite-wide invariant:
// under ANY schedule, a scan returns either byte-identical matches to the
// fault-free oracle or a typed error — never silent truncation.

// chaosPatterns mixes factor-bearing rules (so the prefilter gates some
// automata), factor-less rules (so some always run), and lazy-cache
// churners (so tiny caches genuinely thrash).
var chaosPatterns = []string{
	"GET /admin",
	"cmd\\.exe",
	"needle[0-9]+",
	"a+b",
	"(ab|ba)+c",
	"end$",
}

// chaosInput builds a deterministic ~8 KiB payload spanning several engine
// checkpoints, with matches for every rule sprinkled through lazy-state
// churn.
func chaosInput() []byte {
	var b bytes.Buffer
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 400; i++ {
		for j := 0; j < 12; j++ {
			b.WriteByte("ab"[rng.Intn(2)])
		}
		switch i % 25 {
		case 3:
			b.WriteString(" GET /admin ")
		case 9:
			b.WriteString(" cmd.exe ")
		case 14:
			fmt.Fprintf(&b, " needle%03d ", rng.Intn(1000))
		case 19:
			b.WriteString(" abbac ")
		default:
			fmt.Fprintf(&b, " junk%04d ", rng.Intn(10000))
		}
	}
	b.WriteString("end")
	return b.Bytes()
}

// chaosSchedules is the storm catalog: single points, deterministic
// cadences, seeded randomized mixes, and a union storm.
func chaosSchedules() []struct {
	name  string
	sched faultpoint.Schedule
} {
	return []struct {
		name  string
		sched faultpoint.Schedule
	}{
		{"flush-storm", faultpoint.Every(faultpoint.LazyFlush, 1)},
		{"thrash-early", faultpoint.OnHit(faultpoint.LazyThrash, 1)},
		{"thrash-late", faultpoint.OnHit(faultpoint.LazyThrash, 3)},
		{"alloc-pressure", faultpoint.Every(faultpoint.AllocCap, 2)},
		{"spurious-wake", faultpoint.OnHit(faultpoint.PrefilterWake, 1)},
		{"random-mix", faultpoint.Random(42, map[faultpoint.Point]float64{
			faultpoint.LazyFlush:     0.3,
			faultpoint.LazyThrash:    0.1,
			faultpoint.AllocCap:      0.25,
			faultpoint.PrefilterWake: 0.5,
		})},
		{"union-storm", faultpoint.Union(
			faultpoint.Every(faultpoint.LazyFlush, 2),
			faultpoint.Every(faultpoint.AllocCap, 3),
			faultpoint.OnHit(faultpoint.LazyThrash, 5),
			faultpoint.OnHit(faultpoint.PrefilterWake, 1),
		)},
	}
}

// typedScanErr reports whether err belongs to the typed-failure contract: a
// degradation outcome a caller can program against, as opposed to silent
// corruption.
func typedScanErr(err error) bool {
	var wp *engine.WorkerPanicError
	return errors.Is(err, ErrScanTimeout) ||
		errors.Is(err, ErrOverloaded) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.As(err, &wp)
}

// checkChaosBlock runs one faulted block scan and asserts the invariant.
func checkChaosBlock(t *testing.T, rs *Ruleset, input []byte, oracle []Match) {
	t.Helper()
	got, err := rs.FindAllContext(context.Background(), input)
	if err != nil {
		if !typedScanErr(err) {
			t.Fatalf("block scan failed with untyped error: %v", err)
		}
		return
	}
	if !reflect.DeepEqual(got, oracle) {
		t.Fatalf("block scan diverged under faults: %d matches, oracle %d",
			len(got), len(oracle))
	}
}

// checkChaosStream runs one faulted chunked stream and asserts the
// invariant.
func checkChaosStream(t *testing.T, rs *Ruleset, input []byte, oracle []Match, chunk int) {
	t.Helper()
	var got []Match
	sm := rs.NewStreamMatcher(func(m Match) { got = append(got, m) })
	rest := input
	for len(rest) > 0 {
		n := chunk
		if n > len(rest) {
			n = len(rest)
		}
		if _, err := sm.Write(rest[:n]); err != nil {
			if !typedScanErr(err) {
				t.Fatalf("stream write failed with untyped error: %v", err)
			}
			sm.Close()
			return
		}
		rest = rest[n:]
	}
	if err := sm.Close(); err != nil {
		if !typedScanErr(err) {
			t.Fatalf("stream close failed with untyped error: %v", err)
		}
		return
	}
	sortByEnd(got)
	if !reflect.DeepEqual(got, oracle) {
		t.Fatalf("chunk=%d stream diverged under faults: %d matches, oracle %d",
			chunk, len(got), len(oracle))
	}
}

// chaosName labels the matrix cells the storms run on and returns "" for
// every other cell: iMFAnt under pop, and the lazy DFA under keep at the
// default cache cap ("lazy") and at the tiny one ("lazy-tiny") whose real
// thrash path interleaves with the injected one — each with the prefilter
// off or on and acceleration on or off, scanning serially (the chaos input
// is under the SegmentAuto threshold).
func chaosName(o Options) string {
	if o.Segment == SegmentOn || o.Prefilter == PrefilterAuto {
		return ""
	}
	var eng string
	switch {
	case o.Engine == EngineIMFAnt && !o.KeepOnMatch:
		eng = "imfant"
	case o.Engine == EngineLazyDFA && o.KeepOnMatch && o.LazyDFAMaxStates == 0:
		eng = "lazy"
	case o.Engine == EngineLazyDFA && o.KeepOnMatch:
		eng = "lazy-tiny"
	default:
		return ""
	}
	pf, accel := "pf-on", "accel-on"
	if o.Prefilter == PrefilterOff {
		pf = "pf-off"
	}
	if o.Accel == AccelOff {
		accel = "accel-off"
	}
	return eng + "/" + pf + "/" + accel
}

// TestChaosConformance is the suite core: every config chaosName selects
// from the conformance matrix (the first cell of each label), under every
// scheduled storm, must reproduce the fault-free oracle byte-identically
// (or fail typed) on both the block and the chunked-stream paths.
func TestChaosConformance(t *testing.T) {
	input := chaosInput()
	var totalFired int64
	ran := map[string]bool{}
	for _, cfg := range conformanceConfigs() {
		name := chaosName(cfg.opts)
		if name == "" || ran[name] {
			continue
		}
		ran[name] = true
		t.Run(name, func(t *testing.T) {
			rs := MustCompile(chaosPatterns, cfg.opts)
			oracle := rs.FindAll(input)
			if len(oracle) == 0 {
				t.Fatal("bad fixture: fault-free oracle found no matches")
			}
			for _, sc := range chaosSchedules() {
				in := faultpoint.New(sc.sched)
				rs.setFaultInjector(in)
				checkChaosBlock(t, rs, input, oracle)
				for _, chunk := range []int{1 << 20, 777, 64} {
					checkChaosStream(t, rs, input, oracle, chunk)
				}
				rs.setFaultInjector(nil)
				totalFired += in.TotalFired()
				if st := rs.Stats(); st.Degraded == nil {
					t.Fatalf("schedule %s: Stats().Degraded is nil", sc.name)
				}
			}
		})
	}
	if len(ran) != 12 {
		t.Fatalf("the matrix yields %d of the 12 chaos configs", len(ran))
	}
	// Potency guard: a storm catalog that never fires proves nothing.
	if totalFired == 0 {
		t.Fatal("no fault fired across the whole matrix; schedules are inert")
	}
}

// TestChaosWorkerPanic storms the parallel path: every CountParallel call
// either agrees with the oracle count or fails with the contained, typed
// *engine.WorkerPanicError — and every panic is accounted in
// Stats().Degraded.WorkerPanics.
func TestChaosWorkerPanic(t *testing.T) {
	input := chaosInput()
	rs := MustCompile(chaosPatterns, Options{Prefilter: PrefilterOff})
	want, err := rs.CountParallel(input, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := faultpoint.New(faultpoint.Random(7, map[faultpoint.Point]float64{
		faultpoint.WorkerPanic: 0.25,
	}))
	rs.setFaultInjector(in)
	var failures int64
	for i := 0; i < 40; i++ {
		got, err := rs.CountParallel(input, 4)
		if err != nil {
			var wp *engine.WorkerPanicError
			if !errors.As(err, &wp) {
				t.Fatalf("iteration %d: untyped parallel error: %v", i, err)
			}
			failures++
			continue
		}
		if got != want {
			t.Fatalf("iteration %d: count %d, oracle %d (silent divergence)", i, got, want)
		}
	}
	rs.setFaultInjector(nil)
	if failures == 0 {
		t.Fatal("panic schedule never fired across 40 parallel scans")
	}
	if got := rs.Stats().Degraded.WorkerPanics; got < failures {
		t.Fatalf("Degraded.WorkerPanics = %d, want >= %d (joined panics counted individually)",
			got, failures)
	}
}

// TestChaosStallTimeout combines the ChunkStall fault with ScanTimeout: a
// wedged chunk must surface as the typed ErrScanTimeout (wrapping
// context.DeadlineExceeded), counted in Degraded.ScanTimeouts — the timeout
// rung of the ladder, driven deterministically.
func TestChaosStallTimeout(t *testing.T) {
	input := chaosInput()
	rs := MustCompile(chaosPatterns, Options{
		MergeFactor: 1, // several automata: the between-automata poll cuts off
		ScanTimeout: 20 * time.Millisecond,
	})
	rs.setFaultInjector(faultpoint.New(faultpoint.Every(faultpoint.ChunkStall, 1)).
		WithStall(30 * time.Millisecond))
	_, err := rs.FindAllContext(context.Background(), input)
	if !errors.Is(err, ErrScanTimeout) {
		t.Fatalf("stalled scan error = %v, want ErrScanTimeout", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("ErrScanTimeout must wrap context.DeadlineExceeded")
	}
	rs.setFaultInjector(nil)
	if got := rs.Stats().Degraded.ScanTimeouts; got < 1 {
		t.Fatalf("Degraded.ScanTimeouts = %d, want >= 1", got)
	}
	// The same stall without a timeout budget is only slow, never wrong.
	rs2 := MustCompile(chaosPatterns, Options{})
	oracle := rs2.FindAll(input)
	rs2.setFaultInjector(faultpoint.New(faultpoint.Every(faultpoint.ChunkStall, 3)).
		WithStall(time.Millisecond))
	got, err := rs2.FindAllContext(context.Background(), input)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, oracle) {
		t.Fatal("stalls without a budget changed the match set")
	}
}

// TestChaosHotSwap overlays fault storms on registry hot-swap: scans routed
// through a registry whose current version is swapped mid-traffic, with
// faults armed on both versions, must still land on exactly one version's
// oracle or fail typed.
func TestChaosHotSwap(t *testing.T) {
	input := chaosInput()
	opts := Options{KeepOnMatch: true, Engine: EngineLazyDFA, LazyDFAMaxStates: 3}
	rs1 := MustCompile(chaosPatterns, opts)
	rs2 := MustCompile(chaosPatterns[:4], opts)
	oracle1 := rs1.FindAll(input)
	oracle2 := rs2.FindAll(input)
	if reflect.DeepEqual(oracle1, oracle2) {
		t.Fatal("bad fixture: both versions match identically")
	}
	in := faultpoint.New(faultpoint.Random(13, map[faultpoint.Point]float64{
		faultpoint.LazyFlush:  0.3,
		faultpoint.LazyThrash: 0.15,
		faultpoint.AllocCap:   0.2,
	}))
	rs1.setFaultInjector(in)
	rs2.setFaultInjector(in)
	r := NewRegistryFrom(rs1)
	for i := 0; i < 20; i++ {
		if i%3 == 2 {
			if i%2 == 0 {
				r.Swap(rs2)
			} else {
				r.Swap(rs1)
			}
		}
		got, err := r.FindAllContext(context.Background(), input)
		if err != nil {
			if !typedScanErr(err) {
				t.Fatalf("iteration %d: untyped error: %v", i, err)
			}
			continue
		}
		if !reflect.DeepEqual(got, oracle1) && !reflect.DeepEqual(got, oracle2) {
			t.Fatalf("iteration %d: match list is neither version's oracle (%d matches)",
				i, len(got))
		}
	}
	if in.TotalFired() == 0 {
		t.Fatal("hot-swap storm never fired")
	}
	if err := r.DrainOld(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// FuzzFaultSchedule feeds arbitrary bytes through faultpoint.FromBytes and
// asserts the conformance invariant for whatever schedule falls out — the
// fuzzable face of the chaos suite.
func FuzzFaultSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1})
	f.Add([]byte{1, 1, 200})
	f.Add([]byte{2, 0, 2, 5, 1, 128, 0, 1, 255})
	f.Add([]byte{5, 0, 1, 1, 0, 1, 2, 0, 1})

	input := chaosInput()
	type fixture struct {
		rs     *Ruleset
		oracle []Match
	}
	var fixtures []fixture
	for _, opts := range []Options{
		{Engine: EngineIMFAnt, Prefilter: PrefilterOn},
		{KeepOnMatch: true, Engine: EngineLazyDFA, LazyDFAMaxStates: 3, Prefilter: PrefilterOn},
	} {
		rs := MustCompile(chaosPatterns, opts)
		fixtures = append(fixtures, fixture{rs: rs, oracle: rs.FindAll(input)})
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sched := faultpoint.FromBytes(data)
		for _, fx := range fixtures {
			fx.rs.setFaultInjector(faultpoint.New(sched))
			got, err := fx.rs.FindAllContext(context.Background(), input)
			if err != nil {
				if !typedScanErr(err) {
					t.Fatalf("untyped error under fuzzed schedule %x: %v", data, err)
				}
			} else if !reflect.DeepEqual(got, fx.oracle) {
				t.Fatalf("fuzzed schedule %x diverged: %d matches, oracle %d",
					data, len(got), len(fx.oracle))
			}
			var streamed []Match
			sm := fx.rs.NewStreamMatcher(func(m Match) { streamed = append(streamed, m) })
			if _, err := sm.Write(input); err == nil {
				err = sm.Close()
				if err == nil {
					sortByEnd(streamed)
					if !reflect.DeepEqual(streamed, fx.oracle) {
						t.Fatalf("fuzzed schedule %x diverged on stream: %d matches, oracle %d",
							data, len(streamed), len(fx.oracle))
					}
				}
			} else {
				sm.Close()
			}
			if err != nil && !typedScanErr(err) {
				t.Fatalf("untyped stream error under fuzzed schedule %x: %v", data, err)
			}
			fx.rs.setFaultInjector(nil)
		}
	})
}
