package imfant

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// snortProfiled compiles the snort-derived web-attacks ruleset with the
// profiler on, plus HTTP-ish traffic salted with attack fragments.
func snortProfiled(t *testing.T, opts Options) (*Ruleset, []byte) {
	t.Helper()
	patterns := snortPatterns(t)
	rs, _, err := CompileLax(patterns, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	frags := []string{
		"GET /index.html HTTP/1.0\r\n", "Host: example.com\r\n",
		"User-Agent: Mozilla/5.0\r\n", "Accept: */*\r\n",
		"/etc/passwd", "cmd.exe", "<script>", "../..", "id=1 or 1=1",
	}
	var traffic []byte
	for len(traffic) < 128<<10 {
		traffic = append(traffic, frags[rng.Intn(len(frags))]...)
	}
	return rs, traffic
}

// TestProfileSnortHotStates pins the profiler's core contract on a real
// ruleset: visit shares over all states sum to 1, every hot state is
// attributed to valid rules, and the stats section agrees with the
// report.
func TestProfileSnortHotStates(t *testing.T) {
	rs, traffic := snortProfiled(t, Options{
		Engine: EngineLazyDFA, KeepOnMatch: true, Profile: true,
	})
	sc := rs.NewScanner()
	for i := 0; i < 3; i++ {
		sc.Count(traffic)
	}

	p := rs.Profile()
	if p == nil {
		t.Fatal("Profile() == nil with Options.Profile set")
	}
	if p.Samples == 0 || p.TotalVisits() == 0 {
		t.Fatalf("no samples (%d) or visits (%d)", p.Samples, p.TotalVisits())
	}
	all := p.HotStates(0)
	var sum float64
	for _, h := range all {
		sum += h.Share
		if len(h.Rules) == 0 {
			t.Fatalf("hot state %d/%d has no owning rules", h.Automaton, h.State)
		}
		for _, id := range h.Rules {
			if id < 0 || id >= rs.NumRules() {
				t.Fatalf("state %d attributed to out-of-range rule %d", h.State, id)
			}
		}
	}
	if math.Abs(sum-1.0) > 1e-9 {
		t.Fatalf("visit shares sum to %f, want 1.0", sum)
	}

	// Rule attribution must be consistent with the match-side telemetry:
	// every rule that matched traverses states, so it must absorb heat.
	heat := map[int]bool{}
	for _, rh := range p.HotRules(0) {
		heat[rh.Rule] = true
	}
	for id, n := range rs.Stats().RuleHits {
		if n > 0 && !heat[id] {
			t.Errorf("rule %d has %d hits but no absorbed visits", id, n)
		}
	}

	// The Stats() profile section mirrors the report.
	st := rs.Stats()
	if st.Profile == nil {
		t.Fatal("Stats().Profile == nil with profiling on")
	}
	if st.Profile.Samples != p.Samples || st.Profile.Stride != p.Stride {
		t.Fatalf("stats/report disagree: %+v vs stride=%d samples=%d",
			st.Profile, p.Stride, p.Samples)
	}
	if len(st.Profile.HotStates) == 0 || st.Profile.HotStates[0].State != all[0].State {
		t.Fatalf("stats hot states diverge from report: %+v vs %+v",
			st.Profile.HotStates, all[0])
	}
	if n := stageCounts(st)["scan"]; n == 0 || n != p.ScanLatency.Count() {
		t.Fatalf("report scan latency count %d, Stats().Latency scan stage count %d",
			p.ScanLatency.Count(), n)
	}
}

// stageCounts maps each latency stage in st to its observation count.
func stageCounts(st Stats) map[string]int64 {
	out := map[string]int64{}
	if st.Latency != nil {
		for _, g := range st.Latency.Stages {
			out[g.Stage] = g.Count
		}
	}
	return out
}

// TestProfileOffIsAbsent pins the zero-overhead-off contract's API side:
// without Options.Profile there is no report, no stats section, and no
// heat DOT.
func TestProfileOffIsAbsent(t *testing.T) {
	rs := MustCompile([]string{"abc", "xyz+"}, Options{})
	rs.Count([]byte("zabcxyzz"))
	if rs.Profile() != nil {
		t.Fatal("Profile() != nil with profiling off")
	}
	if rs.Stats().Profile != nil {
		t.Fatal("Stats().Profile != nil with profiling off")
	}
	var buf bytes.Buffer
	if err := rs.WriteProfileDOT(&buf, 0); err == nil {
		t.Fatal("WriteProfileDOT should fail with profiling off")
	}
	data, err := json.Marshal(rs.Stats())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "profile") {
		t.Fatalf("profile-off JSON leaks a profile key: %s", data)
	}
}

// TestProfileDOTHeat checks the heat-map rendering over real visits.
func TestProfileDOTHeat(t *testing.T) {
	rs := MustCompile([]string{"abc", "abd"}, Options{Profile: true, ProfileStride: 4})
	input := bytes.Repeat([]byte("abcabd"), 200)
	rs.Count(input)
	var buf bytes.Buffer
	if err := rs.WriteProfileDOT(&buf, 0); err != nil {
		t.Fatal(err)
	}
	dot := buf.String()
	if !strings.Contains(dot, "digraph mfsa_heat") || !strings.Contains(dot, "#ff") {
		t.Fatalf("heat DOT has no shaded states:\n%.400s", dot)
	}
	if err := rs.WriteProfileDOT(&buf, 99); err == nil {
		t.Fatal("out-of-range automaton should fail")
	}
}

// TestTraceRingPublic exercises the trace API end to end: kinds, capacity,
// the live sink, and stream-end events.
func TestTraceRingPublic(t *testing.T) {
	rs := MustCompile([]string{"abc", "xyz$"}, Options{TraceCapacity: 128})
	var sunk []TraceEvent
	rs.SetTraceSink(func(ev TraceEvent) { sunk = append(sunk, ev) })

	rs.Scan([]byte("zzabczz"), func(Match) {})
	sm := rs.NewStreamMatcher(nil)
	sm.Write([]byte("ab"))
	sm.Write([]byte("cxyz"))
	sm.Close()

	evs := rs.TraceEvents()
	if len(evs) == 0 {
		t.Fatal("no trace events retained")
	}
	kinds := map[string]int{}
	for _, ev := range evs {
		kinds[ev.Kind]++
	}
	for _, want := range []string{"scan_begin", "scan_end", "match", "stream_end"} {
		if kinds[want] == 0 {
			t.Fatalf("no %s event in %v", want, kinds)
		}
	}
	if len(sunk) != len(evs) {
		t.Fatalf("sink saw %d events, ring kept %d", len(sunk), len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("trace not chronological: seq %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
	}

	// Lazy-cache events are emitted by every entry point, not only block
	// scans: a three-state cache flushes on this churn.
	var churn []byte
	for i := 0; i < 2048; i++ {
		churn = append(churn, "ab"[i*i%7%2], "ab"[i%3%2])
	}
	for _, c := range []struct {
		name string
		scan func(*Ruleset)
	}{
		{"StreamMatcher", func(rs *Ruleset) {
			sm := rs.NewStreamMatcher(nil)
			sm.Write(churn)
			sm.Close()
		}},
		{"segmented CountParallel", func(rs *Ruleset) {
			if _, err := rs.CountParallel(churn, 2); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		lz := MustCompile([]string{"(ab|ba)+c", "a+b", "b+a+b"}, Options{TraceCapacity: 64,
			Engine: EngineLazyDFA, KeepOnMatch: true, LazyDFAMaxStates: 3, Segment: SegmentOn})
		c.scan(lz)
		flushes := 0
		for _, ev := range lz.TraceEvents() {
			if ev.Kind == "lazy_flush" {
				flushes++
			}
		}
		if flushes == 0 {
			t.Fatalf("%s emitted no lazy_flush event; stats %+v", c.name, lz.Stats().Lazy)
		}
	}

	// Tracing off: everything degrades to no-ops.
	off := MustCompile([]string{"abc"}, Options{})
	off.Count([]byte("abc"))
	if off.TraceEvents() != nil {
		t.Fatal("TraceEvents != nil with tracing off")
	}
	off.SetTraceSink(func(TraceEvent) { t.Fatal("sink fired with tracing off") })
	off.Count([]byte("abc"))
}

// TestProfileConcurrentSnapshots hammers one profiled ruleset with
// concurrent Scanners, a CountParallel call, a StreamMatcher, and snapshot
// readers, checking that Stats() JSON stays valid mid-scan. Profile alone
// turns on the stage histograms: afterwards the report's scan and chunk
// latency counts equal the "scan" and "stream_write" stage counts — one
// per block scan or CountParallel call, one per Write. Run with -race.
func TestProfileConcurrentSnapshots(t *testing.T) {
	rs := MustCompile([]string{"abc", "abd", "xyz+", "hello"}, Options{
		Profile: true, ProfileStride: 16, TraceCapacity: 64,
		Engine: EngineLazyDFA, KeepOnMatch: true,
	})
	input := bytes.Repeat([]byte("abc xyzz hello abd "), 500)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := rs.NewScanner()
			for i := 0; i < 20; i++ {
				sc.Count(input)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := rs.CountParallel(input, 2); err != nil {
			t.Error(err)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		sm := rs.NewStreamMatcher(nil)
		for i := 0; i < 50; i++ {
			sm.Write(input[:1024])
		}
		sm.Close()
	}()
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			data := []byte(rs.StatsVar().String())
			var m map[string]any
			if err := json.Unmarshal(data, &m); err != nil {
				t.Errorf("mid-scan stats JSON invalid: %v\n%s", err, data)
				return
			}
			if rs.Profile() == nil {
				t.Error("Profile() became nil mid-scan")
				return
			}
			rs.TraceEvents()
		}
	}()
	wg.Wait()
	close(stop)
	reader.Wait()

	st := rs.Stats()
	if st.Profile == nil || st.Profile.Samples == 0 {
		t.Fatalf("no profile after concurrent scans: %+v", st.Profile)
	}
	p, counts := rs.Profile(), stageCounts(st)
	if p.ScanLatency.Count() != 61 || counts["scan"] != p.ScanLatency.Count() {
		t.Fatalf("scan latency: report %d, stage %d, want 61 of each",
			p.ScanLatency.Count(), counts["scan"])
	}
	if p.ChunkLatency.Count() != 50 || counts["stream_write"] != p.ChunkLatency.Count() {
		t.Fatalf("chunk latency: report %d, stage %d, want 50 of each",
			p.ChunkLatency.Count(), counts["stream_write"])
	}
}

// flowsRules returns the flows workload's ruleset, the BRO, TCP and PEN
// rules, and seeded traffic of n bytes over them, a sample of a BRO rule
// planted every 64 bytes.
func flowsRules(tb testing.TB, n int) ([]string, []byte) {
	tb.Helper()
	var pats []string
	var traffic []byte
	for _, abbr := range []string{"BRO", "TCP", "PEN"} {
		s, err := dataset.ByAbbr(abbr)
		if err != nil {
			tb.Fatal(err)
		}
		pats = append(pats, s.Patterns()...)
		if traffic == nil {
			traffic = s.Stream(n, 64)
		}
	}
	return pats, traffic
}

// TestProfileKeepsPlan pins that the profiler observes the production
// plan. On the flows ruleset (MergeFactor 10, KeepOnMatch) a profiled
// compile plans the same execution units and strategies as an unprofiled
// one. At PrefilterOff, every lazy-DFA group's visits, read back from its
// fused unit's profile, equal its visits under a forced EngineLazyDFA,
// which runs every group as a unit of its own: the activation function
// keeps a fused member's states exactly what they are alone.
func TestProfileKeepsPlan(t *testing.T) {
	pats, traffic := flowsRules(t, 64<<10)
	opts := Options{MergeFactor: 10, KeepOnMatch: true}
	plain := MustCompile(pats, opts)
	opts.Profile = true
	prof := MustCompile(pats, opts)
	units := func(rs *Ruleset) [][]int {
		out := make([][]int, len(rs.plan.units))
		for u, x := range rs.plan.units {
			out[u] = x.groups
		}
		return out
	}
	if got, want := units(prof), units(plain); !reflect.DeepEqual(got, want) {
		t.Fatalf("profiled compile plans %d units, unprofiled %d:\n%v\n%v", len(got), len(want), got, want)
	}
	if got, want := prof.Strategies(), plain.Strategies(); !reflect.DeepEqual(got, want) {
		t.Fatalf("profiled strategies %v, unprofiled %v", got, want)
	}

	opts.Prefilter = PrefilterOff
	fused := MustCompile(pats, opts)
	opts.Engine = EngineLazyDFA
	alone := MustCompile(pats, opts)
	if fused.NumAutomata() != alone.NumAutomata() {
		t.Fatalf("%d automata fused, %d alone", fused.NumAutomata(), alone.NumAutomata())
	}
	if got, want := fused.NewScanner().Count(traffic), alone.NewScanner().Count(traffic); got != want {
		t.Fatalf("Count %d fused, %d alone", got, want)
	}
	pf, pa := fused.Profile(), alone.Profile()
	lazy, members := 0, 0
	for g := range fused.NumAutomata() {
		if fused.StrategyOf(g) != StrategyLazyDFA {
			continue
		}
		lazy++
		if len(fused.plan.units[fused.plan.unitOf[g]].groups) > 1 {
			members++
		}
		if got, want := pf.Visits(g), pa.Visits(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("group %d: fused visits %v, alone %v", g, got, want)
		}
	}
	if members == 0 || pf.TotalVisits() == 0 {
		t.Fatalf("setup: %d of %d lazy groups fused, %d visits", members, lazy, pf.TotalVisits())
	}

	// A fused unit's runners share its one profile: a CountParallel call
	// and two interleaved streams (1000- and 777-byte Writes) over the same
	// traffic, run at once, add three more copies of every visit. Sample
	// positions do not depend on chunking, so the totals are exact.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := fused.CountParallel(traffic, 2); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		sizes := []int{1000, 777}
		rest := [][]byte{traffic, traffic}
		sms := []*StreamMatcher{fused.NewStreamMatcher(nil), fused.NewStreamMatcher(nil)}
		for len(rest[0])+len(rest[1]) > 0 {
			for i, sm := range sms {
				n := min(sizes[i], len(rest[i]))
				if _, err := sm.Write(rest[i][:n]); err != nil {
					t.Error(err)
					return
				}
				rest[i] = rest[i][n:]
			}
		}
		for _, sm := range sms {
			if err := sm.Close(); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	pf = fused.Profile()
	for g := range fused.NumAutomata() {
		if fused.StrategyOf(g) != StrategyLazyDFA {
			continue
		}
		want := pa.Visits(g)
		for q, v := range pf.Visits(g) {
			if v != 4*want[q] {
				t.Fatalf("group %d state %d: %d visits after four scans, %d after one alone", g, q, v, want[q])
			}
		}
	}
	t.Logf("%d units (%d unprofiled); %d of %d lazy groups in fused units; %d visits", len(prof.plan.units),
		len(plain.plan.units), members, lazy, pf.TotalVisits())
}
