package pipeline

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/anml"
	"repro/internal/budget"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/mfsa"
)

func TestCompileEndToEnd(t *testing.T) {
	patterns := []string{"GET /a", "GET /b", "POST /c", "x[yz]+"}
	out, err := Compile(patterns, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.FSAs) != 4 {
		t.Fatalf("FSAs=%d", len(out.FSAs))
	}
	if len(out.MFSAs) != 2 {
		t.Fatalf("MFSAs=%d, want ⌈4/2⌉=2", len(out.MFSAs))
	}
	for i, z := range out.MFSAs {
		lo, hi := i*2, i*2+2
		if err := mfsa.Validate(z, out.FSAs[lo:hi]); err != nil {
			t.Fatalf("group %d: %v", i, err)
		}
	}
	if out.ANMLBytes == 0 {
		t.Fatal("no ANML produced")
	}
	if out.Times.Total() <= 0 {
		t.Fatal("no time recorded")
	}
}

func TestCompileMAll(t *testing.T) {
	patterns := []string{"ab", "ac", "ad"}
	out, err := Compile(patterns, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.MFSAs) != 1 || out.MFSAs[0].NumFSAs() != 3 {
		t.Fatalf("M=all: %d MFSAs, R=%d", len(out.MFSAs), out.MFSAs[0].NumFSAs())
	}
}

func TestCompileSinkReceivesANML(t *testing.T) {
	var buf bytes.Buffer
	out, err := Compile([]string{"ab", "cd"}, 1, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() != out.ANMLBytes {
		t.Fatalf("sink has %d bytes, counted %d", buf.Len(), out.ANMLBytes)
	}
	// Two MFSAs → two concatenated documents; the first must parse.
	dec := strings.Index(buf.String()[1:], "<?xml")
	if dec < 0 {
		t.Fatal("expected two XML documents")
	}
	z, err := anml.Read(strings.NewReader(buf.String()[:dec+1]))
	if err != nil {
		t.Fatal(err)
	}
	if z.NumFSAs() != 1 {
		t.Fatalf("R=%d", z.NumFSAs())
	}
}

func TestCompileBadRule(t *testing.T) {
	if _, err := Compile([]string{"ab", "("}, 1, nil); err == nil {
		t.Fatal("bad rule accepted")
	}
	if err, want := func() error {
		_, err := Compile([]string{"a^b"}, 1, nil)
		return err
	}(), "anchors"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err=%v, want mention of %q", err, want)
	}
}

func TestStageTimesArithmetic(t *testing.T) {
	a := StageTimes{FrontEnd: 10, ASTToFSA: 20, SingleME: 30, MergeME: 40, BackEnd: 50}
	b := a
	a.Add(b)
	if a.Total() != 300 {
		t.Fatalf("total=%d", a.Total())
	}
	avg := a.Scale(2)
	if avg != b {
		t.Fatalf("scale: %+v", avg)
	}
	if b.Scale(1) != b || b.Scale(0) != b {
		t.Fatal("scale by ≤1 must be identity")
	}
}

func TestCompileDatasetSubset(t *testing.T) {
	// A realistic smoke test over a slice of each synthetic dataset.
	for _, s := range dataset.Datasets() {
		pats := s.Patterns()[:30]
		out, err := Compile(pats, 10, nil)
		if err != nil {
			t.Fatalf("%s: %v", s.Abbr, err)
		}
		if len(out.MFSAs) != 3 {
			t.Fatalf("%s: MFSAs=%d", s.Abbr, len(out.MFSAs))
		}
		for i, z := range out.MFSAs {
			if err := mfsa.Validate(z, out.FSAs[i*10:(i+1)*10]); err != nil {
				t.Fatalf("%s group %d: %v", s.Abbr, i, err)
			}
		}
	}
}

func BenchmarkCompileBRO30M10(b *testing.B) {
	s, _ := dataset.ByAbbr("BRO")
	pats := s.Patterns()[:30]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(pats, 10, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRunStrictReturnsTypedRuleError(t *testing.T) {
	_, ruleErrs, err := Run(Request{Patterns: []string{"ab", "(", "cd"}, Merge: 1})
	if err == nil {
		t.Fatal("strict mode accepted a malformed rule")
	}
	if ruleErrs != nil {
		t.Fatalf("strict mode should not collect rule errors, got %d", len(ruleErrs))
	}
	var re *RuleError
	if !errors.As(err, &re) {
		t.Fatalf("strict failure should be a *RuleError, got %T: %v", err, err)
	}
	if re.Rule != 1 || re.Pattern != "(" || re.Stage != StageFrontEnd {
		t.Fatalf("RuleError fields: %+v", re)
	}
}

func TestRunLaxIsolatesBadRules(t *testing.T) {
	pats := []string{"ab+", "(", "a{1,100000}", "cd"}
	out, ruleErrs, err := Run(Request{Patterns: pats, Merge: 0, Lax: true})
	if err != nil {
		t.Fatalf("lax run: %v", err)
	}
	if len(ruleErrs) != 2 {
		t.Fatalf("want 2 rule errors, got %d: %v", len(ruleErrs), ruleErrs)
	}
	if ruleErrs[0].Rule != 1 || ruleErrs[0].Stage != StageFrontEnd {
		t.Fatalf("first rule error: %+v", ruleErrs[0])
	}
	if ruleErrs[1].Rule != 2 || !budget.Is(ruleErrs[1]) {
		t.Fatalf("second rule error should be rule 2 budget violation: %+v", ruleErrs[1])
	}
	// Survivors keep their original ruleset indices.
	if len(out.FSAs) != 2 || out.FSAs[0].ID != 0 || out.FSAs[1].ID != 3 {
		t.Fatalf("survivor ids: %v", []int{out.FSAs[0].ID, out.FSAs[1].ID})
	}
	var ids []int
	for _, z := range out.MFSAs {
		for _, info := range z.FSAs {
			ids = append(ids, info.RuleID)
		}
	}
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 3 {
		t.Fatalf("MFSA rule ids: %v", ids)
	}
}

func TestRunLaxAllRulesFail(t *testing.T) {
	_, ruleErrs, err := Run(Request{Patterns: []string{"(", ")"}, Lax: true})
	if err == nil {
		t.Fatal("expected error when no rule survives")
	}
	if len(ruleErrs) != 2 {
		t.Fatalf("want 2 rule errors, got %d", len(ruleErrs))
	}
}

// TestQuickLaxCompileAgrees is the fault-isolation differential: random
// rulesets are salted with hostile rules (syntax errors, budget blowups)
// and compiled in lax mode; the surviving rules must produce exactly the
// match events of compiling them alone — same automata, same (rule, end)
// sets modulo the original ruleset indices.
func TestQuickLaxCompileAgrees(t *testing.T) {
	r := rand.New(rand.NewSource(2025))
	frags := []string{"a", "b", "c", "ab", "bc", "ca", "a[bc]", "(ab|ba)", "b+", "c?", "a{2,3}", "[abc]c"}
	hostile := []string{
		"(",
		"[",
		"a{2,1}",
		"a{1,100000}",
		"(a{500}){500}",
		strings.Repeat("(", 300) + "a",
	}
	f := func() bool {
		m := 1 + r.Intn(5)
		good := make([]string, m)
		for i := range good {
			for j, n := 0, 1+r.Intn(3); j < n; j++ {
				good[i] += frags[r.Intn(len(frags))]
			}
		}
		// Interleave hostile rules at random positions, remembering where
		// each good rule lands in the mixed ruleset.
		var mixed []string
		origIdx := make([]int, m)
		for i, g := range good {
			for r.Intn(2) == 0 {
				mixed = append(mixed, hostile[r.Intn(len(hostile))])
			}
			origIdx[i] = len(mixed)
			mixed = append(mixed, g)
		}

		laxOut, ruleErrs, err := Run(Request{Patterns: mixed, Lax: true})
		if err != nil {
			return false
		}
		if len(ruleErrs) != len(mixed)-m {
			t.Logf("mixed=%v: want %d rule errors, got %v", mixed, len(mixed)-m, ruleErrs)
			return false
		}
		aloneOut, _, err := Run(Request{Patterns: good})
		if err != nil {
			return false
		}

		in := make([]byte, r.Intn(40))
		for i := range in {
			in[i] = byte('a' + r.Intn(3))
		}
		cfg := engine.Config{KeepOnMatch: true}

		// Collect distinct (rule, end) events keyed by original index.
		events := func(out *Output, remap []int) map[[2]int]struct{} {
			set := map[[2]int]struct{}{}
			for _, z := range out.MFSAs {
				p := engine.NewProgram(z)
				rules := p.Rules()
				for _, ev := range engine.Matches(p, in, cfg) {
					rule := rules[ev.FSA].RuleID
					if remap != nil {
						rule = remap[rule]
					}
					set[[2]int{rule, ev.End}] = struct{}{}
				}
			}
			return set
		}
		laxEvents := events(laxOut, nil)
		aloneEvents := events(aloneOut, origIdx)
		if !reflect.DeepEqual(laxEvents, aloneEvents) {
			t.Logf("lax survivors diverge\nmixed=%v input=%q\nlax=%v\nalone=%v",
				mixed, in, laxEvents, aloneEvents)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRunNFAStateBudgetAttribution(t *testing.T) {
	// Within the lexer's repeat bound but over a small expansion budget.
	_, _, err := Run(Request{
		Patterns: []string{"(a{500}){500}"},
		Limits:   Limits{MaxNFAStates: 10_000},
	})
	var re *RuleError
	if !errors.As(err, &re) || re.Stage != StageSingleFSA {
		t.Fatalf("want single-fsa-opt RuleError, got %v", err)
	}
	if !budget.Is(err) {
		t.Fatalf("state-budget violation should wrap budget.Err: %v", err)
	}
}

func TestRunMFSAStateBudget(t *testing.T) {
	pats := []string{"abcdefgh", "ijklmnop", "qrstuvwx"}
	_, _, err := Run(Request{Patterns: pats, Limits: Limits{MaxMFSAStates: 5}})
	if err == nil || !budget.Is(err) {
		t.Fatalf("want ruleset-level budget violation, got %v", err)
	}
	// The same ruleset compiles with the default budget.
	if _, _, err := Run(Request{Patterns: pats}); err != nil {
		t.Fatalf("default budget: %v", err)
	}
}

func TestRunLimitsDisabled(t *testing.T) {
	// Negative limits disable the checks entirely.
	out, _, err := Run(Request{
		Patterns: []string{"(a{500}){500}"},
		Limits:   Limits{MaxNFAStates: -1, MaxMFSAStates: -1},
	})
	if err != nil {
		t.Fatalf("disabled limits: %v", err)
	}
	if out.MFSAs[0].NumStates < 250_000 {
		t.Fatalf("expected full expansion, got %d states", out.MFSAs[0].NumStates)
	}
}
