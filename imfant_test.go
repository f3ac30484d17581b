package imfant

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
)

func TestCompileAndFindAll(t *testing.T) {
	rs := MustCompile([]string{"GET /admin", "cmd\\.exe", "ab+c"}, Options{})
	input := []byte("xx GET /admin yy cmd.exe zz abbbc")
	ms := rs.FindAll(input)
	if len(ms) != 3 {
		t.Fatalf("matches=%v", ms)
	}
	if ms[0].Rule != 0 || ms[0].End != 12 {
		t.Fatalf("first match %+v", ms[0])
	}
	if ms[1].Rule != 1 || ms[1].Pattern != `cmd\.exe` {
		t.Fatalf("second match %+v", ms[1])
	}
	if ms[2].Rule != 2 || ms[2].End != 32 {
		t.Fatalf("third match %+v", ms[2])
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile(nil, Options{}); err == nil {
		t.Fatal("empty ruleset accepted")
	}
	if _, err := Compile([]string{"("}, Options{}); err == nil {
		t.Fatal("bad pattern accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompile did not panic")
		}
	}()
	MustCompile([]string{"("}, Options{})
}

func TestMergeFactorGrouping(t *testing.T) {
	pats := []string{"aa", "ab", "ac", "ad", "ae"}
	for _, tc := range []struct {
		m, want int
	}{{0, 1}, {1, 5}, {2, 3}, {5, 1}, {99, 1}} {
		rs := MustCompile(pats, Options{MergeFactor: tc.m})
		if rs.NumAutomata() != tc.want {
			t.Errorf("M=%d: automata=%d, want %d", tc.m, rs.NumAutomata(), tc.want)
		}
	}
}

func TestCompression(t *testing.T) {
	rs := MustCompile([]string{"GET /aaa", "GET /bbb", "GET /ccc"}, Options{})
	sp, tp := rs.Compression()
	if sp <= 0 || tp <= 0 {
		t.Fatalf("compression %.2f%%/%.2f%% for highly similar rules", sp, tp)
	}
	// M=1 must not compress.
	rs1 := MustCompile([]string{"GET /aaa", "GET /bbb"}, Options{MergeFactor: 1})
	sp1, tp1 := rs1.Compression()
	if sp1 != 0 || tp1 != 0 {
		t.Fatalf("M=1 compression %.2f%%/%.2f%%, want 0", sp1, tp1)
	}
}

func TestCountAndPerRule(t *testing.T) {
	rs := MustCompile([]string{"ab", "b"}, Options{})
	input := []byte("abab")
	if got := rs.Count(input); got != 4 {
		t.Fatalf("count=%d", got)
	}
	per := rs.CountPerRule(input)
	if per[0] != 2 || per[1] != 2 {
		t.Fatalf("per-rule %v", per)
	}
}

func TestKeepOnMatchOption(t *testing.T) {
	pop := MustCompile([]string{"ab*"}, Options{})
	keep := MustCompile([]string{"ab*"}, Options{KeepOnMatch: true})
	in := []byte("abb")
	if got := pop.Count(in); got != 1 {
		t.Fatalf("pop count=%d", got)
	}
	if got := keep.Count(in); got != 3 {
		t.Fatalf("keep count=%d", got)
	}
}

func TestANMLRoundTrip(t *testing.T) {
	pats := []string{"GET /x", "GET /y", "cmd", "a[bc]{2,3}d"}
	rs := MustCompile(pats, Options{MergeFactor: 2})
	var buf bytes.Buffer
	if err := rs.WriteANML(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadANML(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumRules() != rs.NumRules() || loaded.NumAutomata() != rs.NumAutomata() {
		t.Fatalf("loaded %d rules / %d automata", loaded.NumRules(), loaded.NumAutomata())
	}
	if !reflect.DeepEqual(loaded.Patterns(), rs.Patterns()) {
		t.Fatalf("patterns %v vs %v", loaded.Patterns(), rs.Patterns())
	}
	input := []byte("GET /x zz a bccd cmd")
	if !reflect.DeepEqual(loaded.FindAll(input), rs.FindAll(input)) {
		t.Fatal("loaded ruleset matches differently")
	}
	ls, lt := loaded.Compression()
	os_, ot := rs.Compression()
	if ls != os_ || lt != ot {
		t.Fatalf("compression changed: %f/%f vs %f/%f", ls, lt, os_, ot)
	}
}

func TestLoadANMLErrors(t *testing.T) {
	if _, err := LoadANML(bytes.NewReader(nil), Options{}); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := LoadANML(bytes.NewReader([]byte("garbage")), Options{}); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestActivity(t *testing.T) {
	rs := MustCompile([]string{"a+b", "a+c"}, Options{})
	avg, max := rs.Activity([]byte("aaaaaaaa"))
	if avg <= 0 || max != 2 {
		t.Fatalf("activity avg=%f max=%d", avg, max)
	}
}

func TestStatsAccessors(t *testing.T) {
	rs := MustCompile([]string{"abc", "abd"}, Options{})
	if rs.NumRules() != 2 {
		t.Fatal("NumRules")
	}
	if rs.States() <= 0 || rs.Transitions() <= 0 {
		t.Fatal("state/transition accounting")
	}
	ct := rs.CompileTimes()
	if ct.Total() <= 0 {
		t.Fatal("no compile times")
	}
	// Mutating the returned patterns must not affect the ruleset.
	rs.Patterns()[0] = "mutated"
	if rs.Patterns()[0] != "abc" {
		t.Fatal("Patterns leaks internal state")
	}
}

func TestScanCallback(t *testing.T) {
	rs := MustCompile([]string{"x"}, Options{})
	var n int
	rs.Scan([]byte("xxhx"), func(m Match) { n++ })
	if n != 3 {
		t.Fatalf("scan callbacks=%d", n)
	}
}

// TestScannerAllocs pins the allocation budget of a warm, reused Scanner
// over a ruleset that plans every strategy: AC, anchored, eager-DFA and
// lazy-DFA groups, the last gated by the factor prefilter. The per-group
// match wiring is built once per Scanner and the engines reuse their
// per-FSA result slices, so Count allocates nothing and FindAllContext on
// a match-free payload at most the two its callback costs.
func TestScannerAllocs(t *testing.T) {
	rs := MustCompile([]string{
		"needle", "eedle", // AC
		"^HDR", "tail$", // anchored
		"a[bc]+d", "(foo|bar)baz", // eager DFA
		"xyz[0-9]{200}y", "admin[0-9]{200}z", // lazy DFA, gated
	}, Options{MergeFactor: 2})
	want := []Strategy{StrategyAC, StrategyAnchored, StrategyDFA, StrategyLazyDFA}
	if got := rs.Strategies(); !reflect.DeepEqual(got, want) {
		t.Fatalf("strategies %v, want %v", got, want)
	}
	if !rs.PrefilterActive() {
		t.Fatal("no prefilter sweep: the lazy-DFA group is not gated")
	}
	hits := []byte("HDR needle abbd foobaz xyz" + strings.Repeat("7", 200) + "y tail")
	clean := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog "), 30)
	sc := rs.NewScanner()
	for range 3 { // warm the lazy-DFA tables
		sc.Count(hits)
		sc.Count(clean)
	}
	if n := sc.Count(hits); n != 7 {
		t.Fatalf("Count = %d, want 7", n)
	}
	if a := testing.AllocsPerRun(50, func() { sc.Count(hits) }); a != 0 {
		t.Errorf("Count: %v allocs per scan, want 0", a)
	}
	ctx := context.Background()
	if a := testing.AllocsPerRun(50, func() { sc.FindAllContext(ctx, clean) }); a > 2 {
		t.Errorf("FindAllContext on a match-free payload: %v allocs per scan, want at most 2", a)
	}
}
