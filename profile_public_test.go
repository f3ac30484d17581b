package imfant

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/snort"
)

// snortProfiled compiles the snort-derived web-attacks ruleset with the
// profiler on, plus HTTP-ish traffic salted with attack fragments.
func snortProfiled(t *testing.T, opts Options) (*Ruleset, []byte) {
	t.Helper()
	f, err := os.Open("internal/snort/testdata/web-attacks.rules")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rules, _, err := snort.ParseRules(f)
	if err != nil {
		t.Fatal(err)
	}
	patterns := make([]string, 0, len(rules))
	for _, ru := range rules {
		patterns = append(patterns, ru.Pattern)
	}
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
	if st.Profile.ScanLatencyNS == nil || st.Profile.ScanLatencyNS.Count != p.ScanLatency.Count() {
		t.Fatalf("scan latency missing or inconsistent: %+v", st.Profile.ScanLatencyNS)
	}
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
// concurrent Scanners, a StreamMatcher, and snapshot readers, checking
// that Stats() JSON stays valid mid-scan. Run with -race.
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
	if st.Profile.ChunkLatencyNS == nil || st.Profile.ChunkLatencyNS.Count == 0 {
		t.Fatalf("stream writes recorded no chunk latency: %+v", st.Profile.ChunkLatencyNS)
	}
}
