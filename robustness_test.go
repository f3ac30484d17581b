package imfant

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faultpoint"
	"repro/internal/rex"
)

// checkNoGoroutineLeak registers a cleanup asserting the goroutine count
// returns to its pre-test baseline — the leak detector for the parallel
// scan paths (cancellation, contained panics, shedding), whose workers must
// always be joined.
func checkNoGoroutineLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		t.Errorf("goroutine leak: %d before, %d after\n%s",
			before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
	})
}

// TestCompileStrictTypedError checks that strict compilation rejects the
// whole ruleset with a *CompileError attributing the failing rule and
// stage.
func TestCompileStrictTypedError(t *testing.T) {
	_, err := Compile([]string{"ab+", "(", "cd"}, Options{})
	var ce *CompileError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CompileError, got %T: %v", err, err)
	}
	if ce.Rule != 1 || ce.Pattern != "(" || ce.Stage != StageFrontEnd {
		t.Fatalf("bad attribution: %+v", ce)
	}
	if IsBudget(err) {
		t.Fatalf("syntax error misclassified as budget violation: %v", err)
	}
}

// TestCompileBudgetClassification checks that resource blowups — as opposed
// to syntax errors — satisfy IsBudget through the public error chain.
func TestCompileBudgetClassification(t *testing.T) {
	for _, pat := range []string{
		"a{1,100000}", // repetition bound
		strings.Repeat("(", 300) + "a" + strings.Repeat(")", 300), // nesting depth
		"(a{500}){500}", // state blowup during loop expansion
	} {
		_, err := Compile([]string{pat}, Options{})
		if err == nil {
			t.Fatalf("%.40q: expected a budget violation", pat)
		}
		if !IsBudget(err) {
			t.Fatalf("%.40q: violation does not wrap ErrBudget: %v", pat, err)
		}
		var ce *CompileError
		if !errors.As(err, &ce) || ce.Rule != 0 {
			t.Fatalf("%.40q: want typed rule error, got %v", pat, err)
		}
	}
}

// TestCompileLaxAcceptance is the issue's acceptance scenario: a ruleset
// mixing a repetition blowup (a{1,100000}) and an unparsable rule with good
// rules compiles under default limits, reporting the bad rules as
// RuleErrors while the good rules match correctly under their original
// indices.
func TestCompileLaxAcceptance(t *testing.T) {
	pats := []string{"GET /admin", "a{1,100000}", "(", "cmd\\.exe"}
	rs, ruleErrs, err := CompileLax(pats, Options{})
	if err != nil {
		t.Fatalf("CompileLax: %v", err)
	}
	if len(ruleErrs) != 2 {
		t.Fatalf("want 2 rule errors, got %v", ruleErrs)
	}
	if ruleErrs[0].Rule != 1 || !IsBudget(&ruleErrs[0]) {
		t.Fatalf("rule 1 should fail its repetition budget: %+v", ruleErrs[0])
	}
	if ruleErrs[1].Rule != 2 || ruleErrs[1].Stage != StageFrontEnd {
		t.Fatalf("rule 2 should fail parsing: %+v", ruleErrs[1])
	}
	input := []byte("x GET /admin y cmd.exe z")
	var got []Match
	for _, m := range rs.FindAll(input) {
		got = append(got, m)
	}
	if len(got) != 2 || got[0].Rule != 0 || got[1].Rule != 3 {
		t.Fatalf("survivors should match under original indices, got %v", got)
	}
	if got[0].Pattern != "GET /admin" || got[1].Pattern != "cmd\\.exe" {
		t.Fatalf("survivor patterns wrong: %v", got)
	}
}

// TestCompileLaxUnknownEscape checks that an escape of an ASCII letter or
// digit the dialect does not define (a PCRE word boundary, an escape
// letter, a back-reference) fails its own rule with a front-end syntax
// error naming the escape and its offset, instead of compiling the literal
// byte, while escaped punctuation stays literal.
func TestCompileLaxUnknownEscape(t *testing.T) {
	pats := []string{`\bab`, `ab`, `x\ky`, `(a)\1`, `a\.b`}
	rs, ruleErrs, err := CompileLax(pats, Options{})
	if err != nil {
		t.Fatalf("CompileLax: %v", err)
	}
	want := map[int]string{0: `unknown escape \b`, 2: `unknown escape \k`, 3: `unknown escape \1`}
	pos := map[int]int{0: 0, 2: 1, 3: 3}
	if len(ruleErrs) != len(want) {
		t.Fatalf("want %d rule errors, got %v", len(want), ruleErrs)
	}
	for _, re := range ruleErrs {
		var se *rex.SyntaxError
		if !errors.As(&re, &se) || !errors.Is(&re, ErrUnknownEscape) || re.Stage != StageFrontEnd {
			t.Fatalf("rule %d: %v, want a front-end unknown-escape syntax error", re.Rule, re)
		}
		if se.Msg != want[re.Rule] || se.Pos != pos[re.Rule] {
			t.Fatalf("rule %d: %q at offset %d, want %q at %d", re.Rule, se.Msg, se.Pos, want[re.Rule], pos[re.Rule])
		}
	}
	got := rs.FindAll([]byte("bab xky a.b"))
	if len(got) != 2 || got[0].Rule != 1 || got[1].Rule != 4 {
		t.Fatalf("survivors: %v, want rule 1 at 2 and rule 4 at 10", got)
	}
}

// TestCompileLaxDifferential checks the fault-isolation guarantee: the
// survivors of a lax compilation behave byte-identically to compiling them
// alone — same automata sizes, same match events modulo the original rule
// indices.
func TestCompileLaxDifferential(t *testing.T) {
	good := []string{"ab+", "c[de]f", "gh$", "^ij", "k{2,4}"}
	mixed := []string{good[0], "(", good[1], "a{1,100000}", good[2], "[", good[3], good[4]}
	origIdx := []int{0, 2, 4, 6, 7} // positions of good[i] within mixed

	lax, ruleErrs, err := CompileLax(mixed, Options{})
	if err != nil {
		t.Fatalf("CompileLax: %v", err)
	}
	if len(ruleErrs) != 3 {
		t.Fatalf("want 3 rule errors, got %v", ruleErrs)
	}
	alone, err := Compile(good, Options{})
	if err != nil {
		t.Fatalf("Compile(good): %v", err)
	}
	if lax.States() != alone.States() || lax.Transitions() != alone.Transitions() {
		t.Fatalf("lax survivors built different automata: %d/%d states, %d/%d transitions",
			lax.States(), alone.States(), lax.Transitions(), alone.Transitions())
	}

	input := []byte("xabbbx cdf cef gh ij kkk ab\nij gh")
	var laxMatches, aloneMatches []Match
	lax.Scan(input, func(m Match) { laxMatches = append(laxMatches, m) })
	alone.Scan(input, func(m Match) {
		// Remap the standalone indices onto the original ruleset.
		m.Rule = origIdx[m.Rule]
		m.Pattern = mixed[m.Rule]
		aloneMatches = append(aloneMatches, m)
	})
	if !reflect.DeepEqual(laxMatches, aloneMatches) {
		t.Fatalf("match streams diverge:\nlax:   %v\nalone: %v", laxMatches, aloneMatches)
	}
}

// TestCompileLaxAllRulesFail checks the no-survivor case surfaces as a
// ruleset-level error alongside the per-rule reports.
func TestCompileLaxAllRulesFail(t *testing.T) {
	rs, ruleErrs, err := CompileLax([]string{"(", "["}, Options{})
	if err == nil || rs != nil {
		t.Fatalf("want ruleset-level failure, got rs=%v err=%v", rs, err)
	}
	if len(ruleErrs) != 2 {
		t.Fatalf("want 2 rule errors, got %v", ruleErrs)
	}
}

// TestFindAllContextCancelled is the issue's acceptance scenario: a
// context cancelled mid-scan stops a multi-megabyte scan promptly with
// context.Canceled.
func TestFindAllContextCancelled(t *testing.T) {
	rs, err := Compile([]string{"needle", "ab+c"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := make([]byte, 8<<20) // 8 MiB of 'a': no matches, full traversal
	for i := range input {
		input[i] = 'a'
	}

	// Pre-cancelled context: the scan must not consume the input at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rs.FindAllContext(ctx, input); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}

	// Cancelled from the match callback: the scan stops at the next
	// checkpoint, keeping the matches streamed so far.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	in2 := append([]byte("needle"), input...)
	seen := 0
	err = rs.ScanContext(ctx2, in2, func(m Match) {
		seen++
		cancel2()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled after callback cancel, got %v", err)
	}
	if seen == 0 {
		t.Fatal("match streamed before the cancellation was lost")
	}

	// The uncancelled scan still works on the same Ruleset.
	if got, err := rs.FindAllContext(context.Background(), in2); err != nil || len(got) == 0 {
		t.Fatalf("healthy scan after cancellation: %v, %v", got, err)
	}
}

// TestCountContextPartial checks CountContext surfaces both the partial
// count and the cancellation.
func TestCountContextPartial(t *testing.T) {
	rs, err := Compile([]string{"aa"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, err := rs.CountContext(ctx, []byte(strings.Repeat("a", 1<<20)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n != 0 {
		t.Fatalf("pre-cancelled scan counted %d matches", n)
	}
}

// TestCountParallelContextCancelled checks the multi-threaded path honors
// cancellation: every worker stops at its next checkpoint.
func TestCountParallelContextCancelled(t *testing.T) {
	rs, err := Compile([]string{"ab", "cd", "ef"}, Options{MergeFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rs.CountParallelContext(ctx, make([]byte, 1<<20), 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestStreamWriteAfterClose is the regression test for the io.Writer
// contract: a Write after Close must fail instead of silently reporting
// the bytes as consumed.
func TestStreamWriteAfterClose(t *testing.T) {
	rs, err := Compile([]string{"ab"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sm := rs.NewStreamMatcher(nil)
	if n, err := sm.Write([]byte("xabx")); n != 4 || err != nil {
		t.Fatalf("healthy Write = (%d, %v)", n, err)
	}
	if err := sm.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	n, err := sm.Write([]byte("ab"))
	if n != 0 || !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("Write after Close = (%d, %v), want (0, io.ErrClosedPipe)", n, err)
	}
	if sm.Matches() != 1 {
		t.Fatalf("rejected write mutated the match count: %d", sm.Matches())
	}
	if err := sm.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestStreamContextCancelPartialWrite checks the stream-level checkpoints:
// a context cancelled mid-Write makes Write report the consumed prefix and
// the context's error, and the matcher stays failed (sticky Err) without
// flushing a bogus stream end.
func TestStreamContextCancelPartialWrite(t *testing.T) {
	rs, err := Compile([]string{"ab"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sm := rs.NewStreamMatcherContext(ctx, func(Match) { cancel() })

	chunk := append([]byte("ab"), make([]byte, 64<<10)...)
	n, werr := sm.Write(chunk)
	if !errors.Is(werr, context.Canceled) {
		t.Fatalf("want context.Canceled, got (%d, %v)", n, werr)
	}
	if n <= 0 || n >= len(chunk) {
		t.Fatalf("want a partial consumed count, got %d of %d", n, len(chunk))
	}
	if sm.Matches() != 1 {
		t.Fatalf("match before cancellation lost: %d", sm.Matches())
	}
	if n2, err2 := sm.Write([]byte("ab")); n2 != 0 || !errors.Is(err2, context.Canceled) {
		t.Fatalf("failed matcher accepted input: (%d, %v)", n2, err2)
	}
	if err := sm.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close on failed matcher = %v", err)
	}
	if !errors.Is(sm.Err(), context.Canceled) {
		t.Fatalf("Err() = %v", sm.Err())
	}
}

// TestStreamCloseDuringConcurrentWrite pins the Close-during-concurrent-
// Feed contract: with one goroutine writing and another closing, every
// Write either completes in full — its matches delivered before Close
// returns — or loses the race, consumes nothing, and fails with the sticky
// io.ErrClosedPipe. Afterwards the match count equals the consumed chunks
// exactly: no partial-match loss, no torn chunks. Run under -race this also
// proves the mutex covers every shared field.
func TestStreamCloseDuringConcurrentWrite(t *testing.T) {
	rs := MustCompile([]string{"needle"}, Options{})
	chunk := []byte("xx needle yy") // one match per chunk, no cross-chunk overlap
	for round := 0; round < 50; round++ {
		sm := rs.NewStreamMatcher(nil)
		var consumed int64
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				n, err := sm.Write(chunk)
				if err != nil {
					if n != 0 {
						t.Errorf("failed Write reported %d bytes consumed", n)
					}
					if !errors.Is(err, io.ErrClosedPipe) {
						t.Errorf("Write after close = %v, want io.ErrClosedPipe", err)
					}
					return
				}
				if n != len(chunk) {
					t.Errorf("torn write: %d of %d bytes", n, len(chunk))
					return
				}
				atomic.AddInt64(&consumed, 1)
			}
		}()
		if round%2 == 0 {
			runtime.Gosched() // vary the race window
		}
		if err := sm.Close(); err != nil {
			t.Fatalf("round %d: Close: %v", round, err)
		}
		<-done
		if got, want := sm.Matches(), atomic.LoadInt64(&consumed); got != want {
			t.Fatalf("round %d: %d matches for %d fully-consumed chunks — partial-match loss",
				round, got, want)
		}
	}
}

// TestScanTimeoutBlock checks the block-scan rung of the degradation
// ladder: a scan overrunning Options.ScanTimeout is cut off at the next
// checkpoint with the typed ErrScanTimeout, counted in Stats().Degraded.
func TestScanTimeoutBlock(t *testing.T) {
	rs := MustCompile([]string{"needle"}, Options{ScanTimeout: time.Nanosecond})
	input := bytes.Repeat([]byte("a"), 1<<20)
	sc := rs.NewScanner()
	_, err := sc.FindAllContext(context.Background(), input)
	if !errors.Is(err, ErrScanTimeout) {
		t.Fatalf("want ErrScanTimeout, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("ErrScanTimeout must wrap context.DeadlineExceeded for errors.Is interop")
	}
	if got := sc.Stats().Degraded.ScanTimeouts; got != 1 {
		t.Fatalf("scanner Degraded.ScanTimeouts = %d, want 1", got)
	}
	if got := rs.Stats().Degraded.ScanTimeouts; got != 1 {
		t.Fatalf("ruleset Degraded.ScanTimeouts = %d, want 1", got)
	}
	// A caller cancellation takes precedence over the deadline and keeps its
	// own type.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rs.FindAllContext(ctx, input); !errors.Is(err, context.Canceled) ||
		errors.Is(err, ErrScanTimeout) {
		t.Fatalf("pre-cancelled scan = %v, want plain context.Canceled", err)
	}
}

// TestStreamWriteScanTimeout checks the per-Write budget: a Write wedged by
// an injected chunk stall reports the consumed prefix with ErrScanTimeout,
// and the stream fails sticky like a cancellation.
func TestStreamWriteScanTimeout(t *testing.T) {
	// Prefilter off: on factor-free input a gated automaton would never be
	// fed at all, so the stall would have nothing to wedge.
	rs := MustCompile([]string{"needle"}, Options{
		ScanTimeout: 5 * time.Millisecond, Prefilter: PrefilterOff,
	})
	rs.setFaultInjector(faultpoint.New(faultpoint.Every(faultpoint.ChunkStall, 1)).
		WithStall(10 * time.Millisecond))
	sm := rs.NewStreamMatcher(nil)
	big := make([]byte, 3*engine.DefaultCheckpointEvery)
	n, err := sm.Write(big)
	if !errors.Is(err, ErrScanTimeout) {
		t.Fatalf("Write = (%d, %v), want ErrScanTimeout", n, err)
	}
	if n <= 0 || n >= len(big) {
		t.Fatalf("want a partial consumed count, got %d of %d", n, len(big))
	}
	if _, err := sm.Write([]byte("x")); !errors.Is(err, ErrScanTimeout) {
		t.Fatalf("timed-out stream accepted input: %v", err)
	}
	if err := sm.Close(); !errors.Is(err, ErrScanTimeout) {
		t.Fatalf("Close = %v, want sticky ErrScanTimeout", err)
	}
	if got := sm.Stats().Degraded.ScanTimeouts; got != 1 {
		t.Fatalf("stream Degraded.ScanTimeouts = %d, want 1", got)
	}
}

// TestCountParallelOverloadShed checks the bounded-work-queue rung: with
// every slot busy and the queue full, CountParallel is shed fail-fast with
// the typed ErrOverloaded, counted in Stats().Degraded.Shed — and the shed
// path leaks no goroutines.
func TestCountParallelOverloadShed(t *testing.T) {
	checkNoGoroutineLeak(t)
	rs := MustCompile([]string{"ab", "cd"}, Options{MergeFactor: 1, MaxConcurrentScans: 1})
	rs.setFaultInjector(faultpoint.New(faultpoint.Every(faultpoint.ChunkStall, 1)).
		WithStall(100 * time.Millisecond))
	input := bytes.Repeat([]byte("abcd"), 1024)
	done := make(chan error, 1)
	go func() {
		_, err := rs.CountParallel(input, 2)
		done <- err
	}()
	for i := 0; len(rs.sched.slots) == 0 && i < 2000; i++ {
		time.Sleep(time.Millisecond)
	}
	if len(rs.sched.slots) == 0 {
		t.Fatal("first scan never acquired its slot")
	}
	if _, err := rs.CountParallel(input, 2); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second scan = %v, want ErrOverloaded", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("slot-holding scan failed: %v", err)
	}
	if got := rs.Stats().Degraded.Shed; got != 1 {
		t.Fatalf("Degraded.Shed = %d, want 1", got)
	}
	// After the holder finished, admission recovers.
	if _, err := rs.CountParallel(input, 2); err != nil {
		t.Fatalf("scan after recovery: %v", err)
	}
}

// TestCountParallelQueueThenShed checks the queue tier between admission
// and shedding: one waiter is queued and eventually served; the next is
// shed immediately.
func TestCountParallelQueueThenShed(t *testing.T) {
	checkNoGoroutineLeak(t)
	rs := MustCompile([]string{"ab", "cd"}, Options{
		MergeFactor: 1, MaxConcurrentScans: 1, MaxQueuedScans: 1,
	})
	rs.setFaultInjector(faultpoint.New(faultpoint.Every(faultpoint.ChunkStall, 1)).
		WithStall(100 * time.Millisecond))
	input := bytes.Repeat([]byte("abcd"), 1024)
	first := make(chan error, 1)
	go func() {
		_, err := rs.CountParallel(input, 2)
		first <- err
	}()
	for i := 0; len(rs.sched.slots) == 0 && i < 2000; i++ {
		time.Sleep(time.Millisecond)
	}
	queued := make(chan error, 1)
	go func() {
		_, err := rs.CountParallel(input, 2)
		queued <- err
	}()
	for i := 0; rs.sched.queued.Load() == 0 && i < 2000; i++ {
		time.Sleep(time.Millisecond)
	}
	if rs.sched.queued.Load() == 0 {
		t.Fatal("second scan never queued")
	}
	if _, err := rs.CountParallel(input, 2); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third scan = %v, want ErrOverloaded (queue full)", err)
	}
	if err := <-first; err != nil {
		t.Fatalf("slot holder: %v", err)
	}
	if err := <-queued; err != nil {
		t.Fatalf("queued waiter should have been served: %v", err)
	}
	if got := rs.Stats().Degraded.Shed; got != 1 {
		t.Fatalf("Degraded.Shed = %d, want 1", got)
	}
}

// TestCountParallelPanicNoLeak checks that contained worker panics —
// injected through the WorkerPanic fault point — join all workers and leak
// no goroutines, across repeated storms.
func TestCountParallelPanicNoLeak(t *testing.T) {
	checkNoGoroutineLeak(t)
	// The forced engine keeps every group on the parallel workers — the
	// planner would route these all-literal groups to inline AC counting,
	// where there is no worker to panic.
	rs := MustCompile([]string{"ab", "cd", "ef"}, Options{MergeFactor: 1, Engine: EngineIMFAnt})
	rs.setFaultInjector(faultpoint.New(faultpoint.Every(faultpoint.WorkerPanic, 2)))
	input := bytes.Repeat([]byte("abcdef"), 512)
	var errs int
	for i := 0; i < 10; i++ {
		if _, err := rs.CountParallel(input, 3); err != nil {
			var wp *engine.WorkerPanicError
			if !errors.As(err, &wp) {
				t.Fatalf("iteration %d: untyped error: %v", i, err)
			}
			errs++
		}
	}
	if errs == 0 {
		t.Fatal("panic schedule never fired")
	}
	if got := rs.Stats().Degraded.WorkerPanics; got < int64(errs) {
		t.Fatalf("Degraded.WorkerPanics = %d, want >= %d", got, errs)
	}
}

// TestStreamPreCancelled checks a matcher under an already-cancelled
// context consumes nothing.
func TestStreamPreCancelled(t *testing.T) {
	rs, err := Compile([]string{"ab"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sm := rs.NewStreamMatcherContext(ctx, nil)
	if n, err := sm.Write([]byte("abab")); n != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("Write = (%d, %v)", n, err)
	}
	if sm.Matches() != 0 {
		t.Fatalf("cancelled matcher matched: %d", sm.Matches())
	}
}
