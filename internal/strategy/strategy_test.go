package strategy

import (
	"slices"
	"testing"

	"repro/internal/rex"
)

// TestClassifyChain pins the dot-star literal chain shape: literal pieces
// joined by one gap class whose few excluded bytes occur in no piece, with
// no anchors; every other spelling stays general or keeps its older shape.
func TestClassifyChain(t *testing.T) {
	for _, tc := range []struct {
		pattern string
		pieces  []string // nil: not a chain
		kill    string
	}{
		{`ab.*cd`, []string{"ab", "cd"}, "\n"},
		{`ab.*ab.*xyz`, []string{"ab", "ab", "xyz"}, "\n"},
		{`cab[^\r\n]*xy`, []string{"cab", "xy"}, "\n\r"},
		{`a[\x00-\xff]*b`, []string{"a", "b"}, ""},
		{`a{3}.*b`, []string{"aaa", "b"}, "\n"},
		{`ab.*c[^\n]*d`, []string{"ab", "c", "d"}, "\n"}, // `.` is [^\n]
		{`ab.*c[^\r\n]*d`, nil, ""},                      // two gap classes
		{`a\nb.*c`, nil, ""},                             // a piece holds a kill byte
		{`ab.+cd`, nil, ""},                              // the gap has a minimum
		{`.*ab`, nil, ""},                                // leading gap
		{`ab.*`, nil, ""},                                // trailing gap
		{`^ab.*cd`, nil, ""},                             // anchored
		{`ab[a-z]*cd`, nil, ""},                          // too many kill bytes
		{`abcd`, nil, ""},                                // a plain literal
	} {
		ast, err := rex.Parse(tc.pattern)
		if err != nil {
			t.Fatal(err)
		}
		sh := Classify(ast)
		if tc.pieces == nil {
			if sh.Kind == KindChain {
				t.Errorf("%q classified a chain %q", tc.pattern, sh.Pieces)
			}
			continue
		}
		var got []string
		for _, p := range sh.Pieces {
			got = append(got, string(p))
		}
		if sh.Kind != KindChain || !slices.Equal(got, tc.pieces) || string(sh.MiddleExcluded) != tc.kill {
			t.Errorf("%q classified %v %q kill %q, want chain %q kill %q",
				tc.pattern, sh.Kind, got, sh.MiddleExcluded, tc.pieces, tc.kill)
		}
	}
}
