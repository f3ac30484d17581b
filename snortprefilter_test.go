package imfant

import (
	"math/rand"
	"testing"
)

// TestSnortPrefilterSkipRate measures the production literal-factor
// prefilter on the snort-derived web-attacks ruleset through the public
// API — the numbers recorded in EXPERIMENTS.md — and pins the qualitative
// properties: IDS rules are overwhelmingly filterable, benign HTTP traffic
// skips every group, salted traffic wakes only the groups whose factors
// occur, and match results are byte-identical to the unfiltered ruleset.
func TestSnortPrefilterSkipRate(t *testing.T) {
	patterns := snortPatterns(t)
	// The forced engine keeps every group behind the factor sweep — this
	// study measures sweep gating itself. Under the strategy planner
	// (EngineAuto) all-literal groups route to self-filtering AC scans and
	// leave the sweep, which TestSnortAccelAccounting covers.
	on, _, err := CompileLax(patterns, Options{MergeFactor: 2, Prefilter: PrefilterOn, Engine: EngineIMFAnt})
	if err != nil {
		t.Fatal(err)
	}
	off, _, err := CompileLax(patterns, Options{MergeFactor: 2, Prefilter: PrefilterOff, Engine: EngineIMFAnt})
	if err != nil {
		t.Fatal(err)
	}
	if !on.PrefilterActive() {
		t.Fatal("prefilter did not engage on the snort ruleset")
	}

	// Benign HTTP traffic, and the same traffic salted with attack
	// fragments.
	rng := rand.New(rand.NewSource(42))
	benignFrags := []string{
		"GET /index.html HTTP/1.0\r\n", "Host: example.com\r\n",
		"User-Agent: Mozilla/5.0\r\n", "Accept: */*\r\n",
	}
	attackFrags := []string{
		"/etc/passwd", "cmd.exe", "<script>", "../..", "id=1 or 1=1",
	}
	var benign, salted []byte
	for len(benign) < 256<<10 {
		benign = append(benign, benignFrags[rng.Intn(len(benignFrags))]...)
	}
	for len(salted) < 256<<10 {
		if rng.Intn(4) == 0 {
			salted = append(salted, attackFrags[rng.Intn(len(attackFrags))]...)
		} else {
			salted = append(salted, benignFrags[rng.Intn(len(benignFrags))]...)
		}
	}

	groups := int64(on.NumAutomata())
	measure := func(name string, in []byte) *PrefilterStats {
		sc := on.NewScanner()
		got, err := sc.FindAllContext(t.Context(), in)
		if err != nil {
			t.Fatal(err)
		}
		want := off.FindAll(in)
		sortByEnd(got)
		sortByEnd(want)
		if len(got) != len(want) {
			t.Fatalf("%s: %d matches with prefilter, %d without", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: match %d differs: %+v vs %+v", name, i, got[i], want[i])
			}
		}
		st := sc.Stats().Prefilter
		if st == nil {
			t.Fatalf("%s: no prefilter stats", name)
		}
		t.Logf("%s: %d/%d filterable rules, %d factors, %d/%d groups skipped (%.0f%%), %d bytes saved, %d matches",
			name, st.FilterableRules, on.NumRules(), st.Factors,
			st.GroupsSkipped, groups, 100*float64(st.GroupsSkipped)/float64(groups),
			st.BytesSaved, len(got))
		return st
	}

	// Not every snort rule yields a factor (case-insensitive rules
	// compile to per-character classes), so groups holding an
	// unfilterable rule must always run; the skippable population is the
	// fully-filterable groups. Benign traffic must skip those — attack
	// factors don't occur in it — and save exactly their share of the
	// scanned bytes.
	b := measure("benign", benign)
	if b.GroupsSkipped == 0 {
		t.Fatal("benign traffic skipped no groups")
	}
	if b.BytesSaved != b.GroupsSkipped*int64(len(benign)) {
		t.Fatalf("bytes saved %d, want %d", b.BytesSaved, b.GroupsSkipped*int64(len(benign)))
	}
	s := measure("salted", salted)
	if s.FactorHits <= b.FactorHits {
		t.Fatalf("salted traffic hit %d factors, benign %d — salt not detected",
			s.FactorHits, b.FactorHits)
	}
	if s.GroupsSkipped >= b.GroupsSkipped {
		t.Fatalf("salted traffic skipped %d groups, benign %d — factors did not wake groups",
			s.GroupsSkipped, b.GroupsSkipped)
	}
}
