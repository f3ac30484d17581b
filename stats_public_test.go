package imfant

import (
	"encoding/json"
	"reflect"
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

// jsonKeys returns the key set of a JSON object (one level).
func jsonKeys(t *testing.T, raw json.RawMessage) map[string]bool {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("not a JSON object: %v in %s", err, raw)
	}
	keys := make(map[string]bool, len(m))
	for k := range m {
		keys[k] = true
	}
	return keys
}

// TestStatsVarSchemaSync is the schema-drift guard for the expvar surface:
// StatsVar's JSON must carry the strategy and degraded sections, and its
// key sets — top level and within those sections — must equal those of the
// public Stats marshalling. A field renamed on one side but not the other
// fails here, before any dashboard notices.
func TestStatsVarSchemaSync(t *testing.T) {
	rs := MustCompile([]string{"abc", "^hdr", "lit(eral)?x"}, Options{
		Latency: true, Prefilter: PrefilterOn,
	})
	rs.Count([]byte("xxabcxx literalx hdr"))
	if _, err := rs.CountParallel([]byte("abc abc literx"), 2); err != nil {
		t.Fatal(err)
	}

	var fromVar map[string]json.RawMessage
	if err := json.Unmarshal([]byte(rs.StatsVar().String()), &fromVar); err != nil {
		t.Fatalf("StatsVar JSON: %v", err)
	}
	pub, err := json.Marshal(rs.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var fromStats map[string]json.RawMessage
	if err := json.Unmarshal(pub, &fromStats); err != nil {
		t.Fatal(err)
	}

	for _, section := range []string{"strategy", "degraded"} {
		if _, ok := fromVar[section]; !ok {
			t.Errorf("StatsVar JSON missing %q section", section)
		}
	}
	for key := range fromVar {
		if _, ok := fromStats[key]; !ok {
			t.Errorf("StatsVar key %q absent from Stats() JSON", key)
		}
	}
	for key := range fromStats {
		if _, ok := fromVar[key]; !ok {
			t.Errorf("Stats() key %q absent from StatsVar JSON", key)
		}
	}
	for _, section := range []string{"strategy", "degraded", "latency"} {
		v, okV := fromVar[section]
		s, okS := fromStats[section]
		if !okV || !okS {
			continue // absence parity already checked above
		}
		vk, sk := jsonKeys(t, v), jsonKeys(t, s)
		if !reflect.DeepEqual(vk, sk) {
			t.Errorf("section %q keys drifted: expvar %v vs Stats %v", section, vk, sk)
		}
	}
}
