package imfant

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/budget"
	"repro/internal/nfa"
	"repro/internal/pipeline"
	"repro/internal/rex"
)

// ErrScanTimeout is the typed error of scans cancelled by
// Options.ScanTimeout. It wraps context.DeadlineExceeded, so callers that
// already classify context failures keep working:
// errors.Is(err, imfant.ErrScanTimeout) and errors.Is(err,
// context.DeadlineExceeded) are both true. The timeout is observed at the
// engines' ordinary checkpoints (about every 4 KiB per automaton), the same
// rung of the degradation ladder as a context deadline — matches streamed
// before the cutoff were delivered, nothing after it is.
var ErrScanTimeout = fmt.Errorf("imfant: scan timeout: %w", context.DeadlineExceeded)

// ErrOverloaded is the typed error of scans rejected by overload shedding
// (Options.MaxConcurrentScans/MaxQueuedScans): the bounded work queue was
// full, so the scan was refused before doing any work instead of queueing
// unboundedly. Callers should treat it as back-pressure and retry later or
// drop the input, per their loss policy.
var ErrOverloaded = errors.New("imfant: overloaded: scan shed by bounded work queue")

// Stage identifies the compilation stage (§IV, Fig. 4) that raised a
// CompileError.
type Stage = pipeline.Stage

// The five pipeline stages, re-exported for failure attribution.
const (
	StageFrontEnd  = pipeline.StageFrontEnd  // lexical + syntactic analysis
	StageASTToFSA  = pipeline.StageASTToFSA  // Thompson-like construction
	StageSingleFSA = pipeline.StageSingleFSA // ε-removal, loop expansion, multiplicity
	StageMerge     = pipeline.StageMerge     // MFSA merging (Algorithm 1)
	StageBackEnd   = pipeline.StageBackEnd   // ANML generation
)

// ErrBudget is the sentinel wrapped by every resource-budget violation —
// pattern length, nesting depth, repetition bounds, NFA state caps during
// loop expansion, and the total MFSA state cap. Classify with
// errors.Is(err, imfant.ErrBudget) or IsBudget.
var ErrBudget = budget.Err

// ErrUnknownEscape is the sentinel wrapped by the syntax error of a
// backslash escape of an ASCII letter or digit the pattern dialect does not
// define — \b, \B, \k, \e, \c, \p, \1–\9 and the like — which other dialects
// read as word boundaries, back-references or property classes. Classify
// with errors.Is(err, imfant.ErrUnknownEscape); the wrapped *rex.SyntaxError
// names the escape and its offset.
var ErrUnknownEscape = rex.ErrUnknownEscape

// IsBudget reports whether err is (or wraps) a resource-budget violation,
// as opposed to a plain syntax error.
func IsBudget(err error) bool { return budget.Is(err) }

// CompileError is a typed compilation failure. Per-rule failures carry the
// rule's index in the original ruleset and its pattern; ruleset-level
// failures (merging, ANML generation) carry Rule == -1 and an empty
// Pattern. Stage attributes the failure to the pipeline checkpoint that
// raised it, and Err — reachable through errors.As/Is — is the underlying
// cause (for example a *rex.SyntaxError, or a budget violation satisfying
// IsBudget).
type CompileError struct {
	// Rule is the pattern's index within the ruleset passed to Compile or
	// CompileLax, or -1 for ruleset-level failures.
	Rule int
	// Pattern is the failing rule's source text (possibly long; Error()
	// truncates it for display).
	Pattern string
	// Stage is the compilation stage that rejected the input.
	Stage Stage
	// Err is the underlying cause.
	Err error
}

func (e *CompileError) Error() string {
	if e.Rule < 0 {
		return fmt.Sprintf("imfant: ruleset failed in %s: %v", e.Stage, e.Err)
	}
	return fmt.Sprintf("imfant: rule %d (%q) failed in %s: %v",
		e.Rule, truncatePattern(e.Pattern), e.Stage, e.Err)
}

// Unwrap exposes the underlying cause for errors.Is / errors.As.
func (e *CompileError) Unwrap() error { return e.Err }

// RuleError is the per-rule failure type reported by CompileLax.
type RuleError = CompileError

// truncatePattern keeps hostile multi-kilobyte patterns out of error text.
func truncatePattern(p string) string {
	const max = 128
	if len(p) <= max {
		return p
	}
	return p[:max] + "..."
}

// Limits is the compile-side resource budget. For each field, zero selects
// the documented default and a negative value disables the check.
// Violations surface as *CompileError values wrapping ErrBudget.
type Limits struct {
	// MaxPatternLen bounds each pattern's length in bytes, checked before
	// lexing (default rex.DefaultMaxLen, 64 KiB).
	MaxPatternLen int
	// MaxNestingDepth bounds each pattern's group-nesting depth, checked
	// during parsing so the parser's recursion is bounded too (default
	// rex.DefaultMaxDepth, 250).
	MaxNestingDepth int
	// MaxNFAStates bounds each rule's automaton during loop expansion,
	// where counted repetitions like a{1,1000} materialize copies
	// (default nfa.DefaultMaxStates, 256 Ki states).
	MaxNFAStates int
	// MaxMFSAStates bounds the state count summed over all merged MFSAs —
	// the memory budget of the compiled ruleset (default 2 Mi states).
	MaxMFSAStates int
}

func (l Limits) pipeline() pipeline.Limits {
	return pipeline.Limits{
		MaxPatternLen: l.MaxPatternLen,
		MaxDepth:      l.MaxNestingDepth,
		MaxNFAStates:  l.MaxNFAStates,
		MaxMFSAStates: l.MaxMFSAStates,
	}
}

// DefaultLimits returns the resolved default budgets (the values used when
// the corresponding Limits field is zero).
func DefaultLimits() Limits {
	return Limits{
		MaxPatternLen:   rex.DefaultMaxLen,
		MaxNestingDepth: rex.DefaultMaxDepth,
		MaxNFAStates:    nfa.DefaultMaxStates,
		MaxMFSAStates:   pipeline.DefaultMaxMFSAStates,
	}
}
