package imfant

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"
)

// TestRulesetStatsCounts checks the ruleset-wide fold: per-rule hits agree
// with CountPerRule, and bytes/scans scale with the automaton count.
func TestRulesetStatsCounts(t *testing.T) {
	patterns := []string{"ab", "b+c", "cd"}
	rs := MustCompile(patterns, Options{MergeFactor: 2}) // 2 automata
	input := []byte("abxbbcxcdab")

	sc := rs.NewScanner()
	perRule := sc.CountPerRule(input)

	st := rs.Stats()
	if !reflect.DeepEqual(st.RuleHits, perRule) {
		t.Fatalf("Stats.RuleHits %v, CountPerRule %v", st.RuleHits, perRule)
	}
	if want := int64(rs.NumAutomata()); st.Scans != want {
		t.Fatalf("Scans = %d, want %d", st.Scans, want)
	}
	if want := int64(len(input) * rs.NumAutomata()); st.BytesScanned != want {
		t.Fatalf("BytesScanned = %d, want %d", st.BytesScanned, want)
	}
	var hits int64
	for _, n := range perRule {
		hits += n
	}
	if st.Matches != hits {
		t.Fatalf("Matches = %d, want %d", st.Matches, hits)
	}
	if st.Lazy != nil {
		t.Fatal("iMFAnt ruleset has a lazy section")
	}

	// Scanner-scope stats agree with the ruleset-scope fold (this scanner
	// did all the work).
	if ss := sc.Stats(); !reflect.DeepEqual(ss, st) {
		t.Fatalf("Scanner.Stats %+v != Ruleset.Stats %+v", ss, st)
	}

	// CountParallel folds into the same collector.
	if _, err := rs.CountParallel(input, 2); err != nil {
		t.Fatal(err)
	}
	after := rs.Stats()
	if after.Scans != 2*st.Scans || after.Matches != 2*st.Matches {
		t.Fatalf("CountParallel not folded: %+v after %+v", after, st)
	}
}

// TestLazyStats checks the lazy-DFA section: cache counters flow from the
// runners to every scope, and the warm-scan hit rate approaches 1.
func TestLazyStats(t *testing.T) {
	rs := MustCompile([]string{"abc", "b+c"}, Options{Engine: EngineLazyDFA, KeepOnMatch: true})
	input := []byte("abcxbbcabcxxabc")

	sc := rs.NewScanner()
	for i := 0; i < 3; i++ {
		sc.Count(input)
	}
	st := sc.Stats()
	if st.Lazy == nil {
		t.Fatal("lazy section missing from Scanner.Stats")
	}
	if st.Scans != 3 || st.BytesScanned != int64(3*len(input)) {
		t.Fatalf("scanner stats %+v", st)
	}
	l := st.Lazy
	if l.Hits+l.Misses != st.BytesScanned {
		t.Fatalf("hits %d + misses %d != bytes %d", l.Hits, l.Misses, st.BytesScanned)
	}
	if l.Misses == 0 || l.HitRate() < 0.5 {
		t.Fatalf("implausible cache behaviour: %+v", l)
	}
	if l.CachedStates == 0 || l.MaxStates == 0 || l.ByteClasses == 0 {
		t.Fatalf("static lazy config missing: %+v", l)
	}

	// The ruleset-wide fold saw the same scans.
	rst := rs.Stats()
	if rst.Lazy == nil || rst.Lazy.Hits != l.Hits || rst.Lazy.Misses != l.Misses {
		t.Fatalf("ruleset lazy fold %+v, scanner %+v", rst.Lazy, l)
	}

	// Every entry point runs lazy-DFA groups on the lazy engine: a parallel
	// count below the segment path and a stream serve every byte from the
	// cache too.
	for _, c := range []struct {
		name string
		scan func(*Ruleset)
	}{
		{"CountParallel", func(rs *Ruleset) {
			if _, err := rs.CountParallel(input, 2); err != nil {
				t.Fatal(err)
			}
		}},
		{"StreamMatcher", func(rs *Ruleset) {
			sm := rs.NewStreamMatcher(nil)
			sm.Write(input[:5])
			sm.Write(input[5:])
			sm.Close()
		}},
	} {
		rs := MustCompile([]string{"abc", "b+c"}, Options{Engine: EngineLazyDFA, KeepOnMatch: true, Segment: SegmentOff})
		c.scan(rs)
		st := rs.Stats()
		if st.Lazy == nil || st.BytesScanned != int64(len(input)) || st.Lazy.Hits+st.Lazy.Misses != st.BytesScanned {
			t.Fatalf("%s: bytes %d, lazy %+v", c.name, st.BytesScanned, st.Lazy)
		}
	}
}

// TestLazyCachedStatesGauge pins the ruleset-scope cached-states gauge when
// the lazy group is not among the first groups: the gauge is indexed by
// execution unit, so a lazy group at unit 3 of a ruleset with one lazy group
// must still be counted, and the ruleset and scanner scopes must agree.
func TestLazyCachedStatesGauge(t *testing.T) {
	rs := MustCompile([]string{"abc", "xyz", `a[^\n]*b[0-9]+c`, "q(r|s)*t[0-9]+"},
		Options{MergeFactor: 1})
	want := []Strategy{StrategyAC, StrategyAC, StrategyDFA, StrategyLazyDFA}
	if got := rs.Strategies(); !reflect.DeepEqual(got, want) {
		t.Fatalf("strategies %v, want %v", got, want)
	}
	sc := rs.NewScanner()
	sc.Count([]byte("abc xyz a--b12c qrsrt42 abc"))
	local, global := sc.Stats().Lazy, rs.Stats().Lazy
	if local == nil || global == nil {
		t.Fatalf("lazy section missing: scanner %+v, ruleset %+v", local, global)
	}
	if local.CachedStates == 0 || global.CachedStates != local.CachedStates {
		t.Fatalf("cached states: scanner %d, ruleset %d", local.CachedStates, global.CachedStates)
	}
}

// TestStreamMatcherStats checks the stream scope: live reads during the
// stream, and the Close-time fold into the ruleset collector.
func TestStreamMatcherStats(t *testing.T) {
	rs := MustCompile([]string{"ab", "b$"}, Options{})
	sm := rs.NewStreamMatcher(nil)
	sm.Write([]byte("xxabxx"))

	live := sm.Stats()
	if live.Scans != 0 {
		t.Fatalf("Scans before Close = %d", live.Scans)
	}
	// 6 bytes written, but the most recent one is held back until the
	// stream end is known — 5 have been matched against so far.
	if live.BytesScanned != 5 || live.Matches != 1 {
		t.Fatalf("live stream stats %+v", live)
	}

	before := rs.Stats()
	sm.Write([]byte("ab"))
	sm.Close()
	final := sm.Stats()
	if final.Scans != 1 || final.BytesScanned != 8 || final.Matches != 3 {
		t.Fatalf("final stream stats %+v", final)
	}
	if want := []int64{2, 1}; !reflect.DeepEqual(final.RuleHits, want) {
		t.Fatalf("stream rule hits %v, want %v", final.RuleHits, want)
	}
	after := rs.Stats()
	if after.Scans != before.Scans+1 || after.Matches != before.Matches+3 {
		t.Fatalf("Close did not fold into ruleset: %+v then %+v", before, after)
	}
}

// TestStatsVarJSON checks the expvar export: the Var's String output is
// valid JSON carrying the same numbers as Stats.
func TestStatsVarJSON(t *testing.T) {
	rs := MustCompile([]string{"abc"}, Options{Engine: EngineLazyDFA, KeepOnMatch: true})
	rs.Count([]byte("xxabcxxabc"))

	v := rs.StatsVar()
	var decoded struct {
		Scans        int64   `json:"scans"`
		BytesScanned int64   `json:"bytes_scanned"`
		Matches      int64   `json:"matches"`
		RuleHits     []int64 `json:"rule_hits"`
		Lazy         *struct {
			Hits      int64 `json:"hits"`
			Misses    int64 `json:"misses"`
			MaxStates int   `json:"max_states"`
		} `json:"lazy"`
	}
	if err := json.Unmarshal([]byte(v.String()), &decoded); err != nil {
		t.Fatalf("StatsVar JSON: %v", err)
	}
	st := rs.Stats()
	if decoded.Scans != st.Scans || decoded.BytesScanned != st.BytesScanned ||
		decoded.Matches != st.Matches || !reflect.DeepEqual(decoded.RuleHits, st.RuleHits) {
		t.Fatalf("expvar %+v disagrees with Stats %+v", decoded, st)
	}
	if decoded.Lazy == nil || decoded.Lazy.Hits != st.Lazy.Hits || decoded.Lazy.MaxStates != st.Lazy.MaxStates {
		t.Fatalf("expvar lazy %+v, Stats lazy %+v", decoded.Lazy, st.Lazy)
	}
}

// jsonKeys returns the sorted key set of a JSON object (one level).
func jsonKeys(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("not a JSON object: %v in %s", err, raw)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestOptionsFields pins the public Options field set: adding, removing or
// renaming a knob fails here until the list below is edited in review.
// It is the Options counterpart of TestStatsJSONKeys.
func TestOptionsFields(t *testing.T) {
	want := []string{
		"MergeFactor", "KeepOnMatch", "Engine", "Prefilter", "Accel",
		"LazyDFAMaxStates", "Limits", "Profile", "ProfileStride", "Latency",
		"TraceCapacity", "ScanTimeout", "MaxConcurrentScans", "MaxQueuedScans",
		"Segment",
	}
	typ := reflect.TypeOf(Options{})
	got := make([]string, typ.NumField())
	for i := range got {
		got[i] = typ.Field(i).Name
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Options fields = %v,\nwant %v", got, want)
	}
}

// TestStatsJSONKeys pins the stats JSON keys, a public contract (see
// DESIGN.md): with every section turned on, the top level and each section
// — including the first element of each list section — must carry exactly
// the literal key sets below, so a renamed or dropped key fails here before
// any dashboard notices. It also pins that the expvar surface renders the
// same document as marshalling Stats.
func TestStatsJSONKeys(t *testing.T) {
	patterns := append([]string{"q(r|s)*t[0-9]+"}, obsTestPatterns...)
	rs := MustCompile(patterns, Options{
		MergeFactor: 3, Profile: true, ProfileStride: 8, Latency: true,
		Segment: SegmentOn, Accel: AccelAuto, Prefilter: PrefilterOn,
	})
	input := append(obsTraffic(16<<10, 5), "qrst42"...)
	rs.Count(input)
	if _, err := rs.CountParallel(input, 2); err != nil {
		t.Fatal(err)
	}
	sm := rs.NewStreamMatcher(nil)
	if _, err := sm.Write(input[:4<<10]); err != nil {
		t.Fatal(err)
	}
	if err := sm.Close(); err != nil {
		t.Fatal(err)
	}

	pub, err := json.Marshal(rs.Stats())
	if err != nil {
		t.Fatal(err)
	}
	if v := rs.StatsVar().String(); v != string(pub) {
		t.Fatalf("StatsVar JSON differs from Stats JSON:\n%s\n%s", v, pub)
	}

	var top map[string]json.RawMessage
	if err := json.Unmarshal(pub, &top); err != nil {
		t.Fatal(err)
	}
	// first returns the first element of a JSON array.
	first := func(raw json.RawMessage) json.RawMessage {
		var a []json.RawMessage
		if err := json.Unmarshal(raw, &a); err != nil || len(a) == 0 {
			t.Fatalf("want a non-empty JSON array, got %s", raw)
		}
		return a[0]
	}
	section := func(path ...string) json.RawMessage {
		raw := json.RawMessage(pub)
		for _, key := range path {
			var m map[string]json.RawMessage
			if err := json.Unmarshal(raw, &m); err != nil {
				t.Fatalf("%v: %v", path, err)
			}
			if m[key] == nil {
				t.Fatalf("%v: key %q absent in %s", path, key, raw)
			}
			raw = m[key]
		}
		return raw
	}
	hist := []string{"count", "max", "mean", "p50", "p90", "p99"}
	for _, c := range []struct {
		name string
		raw  json.RawMessage
		want []string
	}{
		{"top", pub, []string{"accel", "bytes_scanned", "degraded", "latency", "lazy", "matches",
			"prefilter", "profile", "rule_hits", "scans", "segment", "strategy"}},
		{"lazy", section("lazy"), []string{"automata", "byte_classes", "cache_bytes", "cached_states", "fallbacks",
			"flushes", "hits", "max_states", "misses"}},
		{"prefilter", section("prefilter"), []string{"bytes_saved", "factors", "filterable_rules",
			"groups_skipped", "prefilter_factor_hits", "sweeps"}},
		{"accel", section("accel"), []string{"accel_states", "automata", "bytes_skipped"}},
		{"strategy", section("strategy"), []string{"groups", "groups_ungated", "planned",
			"sweep_probes", "sweeps_disabled"}},
		{"strategy.groups[0]", first(section("strategy", "groups")), []string{"bytes", "groups", "strategy"}},
		{"profile", section("profile"), []string{"active_pairs", "hot_states", "samples", "stride"}},
		{"profile.active_pairs", section("profile", "active_pairs"), hist},
		{"profile.hot_states[0]", first(section("profile", "hot_states")), []string{"automaton",
			"rules", "share", "state", "visits"}},
		{"segment", section("segment"), []string{"fallbacks", "parallel_bytes", "segmented_scans",
			"segments", "serial_bytes", "stitch_bytes"}},
		{"degraded", section("degraded"), []string{"cache_grows", "pinned_scans", "scan_timeouts",
			"shed", "thrash_fallbacks", "worker_panics"}},
		{"latency", section("latency"), []string{"stages"}},
		{"latency.stages[0]", first(section("latency", "stages")), append([]string{"stage"}, hist...)},
	} {
		want := append([]string(nil), c.want...)
		sort.Strings(want)
		if got := jsonKeys(t, c.raw); !reflect.DeepEqual(got, want) {
			t.Errorf("%s keys %v, want %v", c.name, got, want)
		}
	}
}
