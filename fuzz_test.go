package imfant

import (
	"errors"
	"strings"
	"testing"
)

// FuzzCompile feeds hostile patterns through the full compilation pipeline
// and a short scan. The invariants under fuzzing:
//
//   - no public entry point panics on malformed or adversarial input;
//   - every failure is a typed *CompileError attributing a rule and stage;
//   - every success respects the ruleset-level state budget, so a pattern
//     cannot talk the compiler into unbounded memory.
func FuzzCompile(f *testing.F) {
	seeds := []string{
		"",
		"(",
		")",
		"[",
		"a**",
		"a{2,1}",
		"a{1,100000}",
		"a{100000}",
		"(a{500}){500}",
		"((a{90}){90}){90}",
		"a{0,0}b",
		strings.Repeat("(", 500),
		strings.Repeat("(", 240) + "a" + strings.Repeat(")", 240),
		strings.Repeat("a|", 2000) + "b",
		strings.Repeat("[^a]", 300),
		"\\",
		"x" + string(rune(0)) + "y",
		"(a|b)*c{3,7}[d-f]+$",
		"^" + strings.Repeat("(ab?c+)", 60) + "$",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	maxStates := DefaultLimits().MaxMFSAStates
	probe := []byte("abcdefg\x00ab{}(x")
	f.Fuzz(func(t *testing.T, pattern string) {
		rs, err := Compile([]string{pattern}, Options{})
		if err != nil {
			var ce *CompileError
			if !errors.As(err, &ce) {
				t.Fatalf("%.60q: untyped compile error %T: %v", pattern, err, err)
			}
			return
		}
		if got := rs.States(); got > maxStates {
			t.Fatalf("%.60q: compiled to %d states, over the %d budget", pattern, got, maxStates)
		}
		// A compiled hostile pattern must also execute without panicking.
		rs.FindAll(probe)
	})
}
