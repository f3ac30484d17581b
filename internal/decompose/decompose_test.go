package decompose

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/factor"
	"repro/internal/mfsa"
	"repro/internal/nfa"
	"repro/internal/rex"
)

func TestFactorExtraction(t *testing.T) {
	cases := []struct {
		pattern string
		want    string
		ok      bool
	}{
		{"GET /admin", "GET /admin", true},
		{"abc|def", "", false},        // alternation: no common factor
		{"(abc|def)ghi", "ghi", true}, // mandatory suffix survives
		{"xy[0-9]longest", "longest", true},
		{"a*needle", "needle", true},
		{"nee(d|D)le", "nee", true},
		{"ab", "", false}, // below factor.MinLen
		{"x{5}", "xxxxx", true},
		{"(ab){3}", "ababab", true},
		{"(ab){2,5}", "abab", true}, // min copies guaranteed contiguous
		{"a?bcd", "bcd", true},
		{"^prefix", "prefix", true},
		{"[abc]+", "", false},
		{"lit1.*lit2extra", "lit2extra", true},
	}
	for _, c := range cases {
		ast := rex.MustParse(c.pattern)
		got, ok := Factor(ast, factor.MinLen)
		if ok != c.ok || got != c.want {
			t.Errorf("Factor(%q) = %q,%v want %q,%v", c.pattern, got, ok, c.want, c.ok)
		}
	}
}

func TestFactorIsRequired(t *testing.T) {
	// Property: every accepted sample of the rule contains its factor.
	r := rand.New(rand.NewSource(71))
	for _, pattern := range []string{
		"GET /[a-z]{1,8}index", "a+needleb*", "(x|y)required(p|q)",
		"pre{2,4}post", "lit1.*lit2",
	} {
		ast := rex.MustParse(pattern)
		f, ok := Factor(ast, 1)
		if !ok {
			t.Fatalf("%s: no factor", pattern)
		}
		for k := 0; k < 40; k++ {
			sample := dataset.SampleString(r, ast)
			if !contains(sample, f) {
				t.Fatalf("%s: sample %q lacks factor %q", pattern, sample, f)
			}
		}
	}
}

func contains(hay []byte, needle string) bool {
	for i := 0; i+len(needle) <= len(hay); i++ {
		if string(hay[i:i+len(needle)]) == needle {
			return true
		}
	}
	return false
}

func TestMatcherEquivalence(t *testing.T) {
	patterns := []string{
		"GET /admin", "cmd[0-9]exe", "abc|xyz", "no(d|D)e", "a+filter",
	}
	m, err := New(patterns, false)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []string{
		"GET /admin and cmd7exe",
		"nothing relevant at all",
		"abc then aafilter",
		"noDe xyz",
		"",
	}
	for _, in := range inputs {
		type ev struct{ rule, end int }
		var got []ev
		m.Scan([]byte(in), func(rule, end int) { got = append(got, ev{rule, end}) })
		// Reference: run every rule unconditionally.
		var want []ev
		for rule, pat := range patterns {
			a, err := nfa.Compile(pat)
			if err != nil {
				t.Fatal(err)
			}
			z, err := mfsa.Merge([]*nfa.NFA{a})
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range engine.Matches(engine.NewProgram(z), []byte(in), engine.Config{}) {
				want = append(want, ev{rule, e.End})
			}
		}
		sortEvs := func(es []ev) {
			sort.Slice(es, func(i, j int) bool {
				if es[i].rule != es[j].rule {
					return es[i].rule < es[j].rule
				}
				return es[i].end < es[j].end
			})
		}
		sortEvs(got)
		sortEvs(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("input %q: %v want %v", in, got, want)
		}
	}
}

func TestMatcherSkipsUntriggered(t *testing.T) {
	patterns := []string{"needleone", "needletwo", "needlethree"}
	m, err := New(patterns, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumFilterable() != 3 {
		t.Fatalf("filterable=%d", m.NumFilterable())
	}
	st := m.Scan([]byte("entirely unrelated haystack content"), nil)
	if st.Skipped != 3 || st.Triggered != 0 || st.Matches != 0 {
		t.Fatalf("stats %+v", st)
	}
	st = m.Scan([]byte("xx needletwo xx"), nil)
	if st.Triggered != 1 || st.Skipped != 2 || st.Matches != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMatcherUnfilterableAlwaysRuns(t *testing.T) {
	m, err := New([]string{"[0-9]+"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumFilterable() != 0 {
		t.Fatal("class-only rule reported filterable")
	}
	st := m.Scan([]byte("a7b"), nil)
	if st.Matches != 1 {
		t.Fatalf("matches=%d", st.Matches)
	}
}

func TestNewRejectsBadRule(t *testing.T) {
	if _, err := New([]string{"("}, false); err == nil {
		t.Fatal("bad rule accepted")
	}
}

func BenchmarkDecomposedVsFull(b *testing.B) {
	s, _ := dataset.ByAbbr("BRO")
	patterns := s.Patterns()[:60]
	in := make([]byte, 64<<10)
	r := rand.New(rand.NewSource(8))
	for i := range in {
		in[i] = byte('A' + r.Intn(26)) // uppercase noise: factors rarely hit
	}
	b.Run("decomposed", func(b *testing.B) {
		m, err := New(patterns, false)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(in)))
		for i := 0; i < b.N; i++ {
			m.Scan(in, nil)
		}
	})
	b.Run("imfant-all", func(b *testing.B) {
		fsas := make([]*nfa.NFA, len(patterns))
		for i, pat := range patterns {
			n, err := nfa.Compile(pat)
			if err != nil {
				b.Fatal(err)
			}
			fsas[i] = n
		}
		z, err := mfsa.Merge(fsas)
		if err != nil {
			b.Fatal(err)
		}
		runner := engine.NewRunner(engine.NewProgram(z))
		b.SetBytes(int64(len(in)))
		for i := 0; i < b.N; i++ {
			runner.Run(in, engine.Config{})
		}
	})
}
