package engine

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/mfsa"
	"repro/internal/nfa"
)

// checkNoGoroutineLeak asserts (at cleanup) that the goroutine count
// returns to its pre-test baseline: RunParallel must join every worker on
// every exit path — normal completion, checkpoint cancellation, and
// contained panics alike.
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

func buildPrograms(t testing.TB, m int, patterns []string) []*Program {
	t.Helper()
	fsas := make([]*nfa.NFA, len(patterns))
	for i, pat := range patterns {
		n, err := nfa.Compile(pat)
		if err != nil {
			t.Fatalf("compile %q: %v", pat, err)
		}
		n.ID = i
		fsas[i] = n
	}
	groups, err := mfsa.MergeGroups(fsas, m)
	if err != nil {
		t.Fatal(err)
	}
	ps := make([]*Program, len(groups))
	for i, z := range groups {
		ps[i] = NewProgram(z)
	}
	return ps
}

func TestRunParallelMatchesSequential(t *testing.T) {
	patterns := []string{"abc", "abd", "bcd", "a[bc]d", "cc+", "(ab|cd)e", "xyz", "x+y"}
	rnd := rand.New(rand.NewSource(33))
	in := make([]byte, 4096)
	alpha := []byte("abcdexyz")
	for i := range in {
		in[i] = alpha[rnd.Intn(len(alpha))]
	}
	for _, m := range []int{1, 2, 4, 8} {
		ps := buildPrograms(t, m, patterns)
		seq, err := RunParallel(ps, in, 1, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{2, 3, 8, 16} {
			par, err := RunParallel(ps, in, threads, Config{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range seq {
				if seq[i].Matches != par[i].Matches {
					t.Fatalf("M=%d T=%d program %d: %d vs %d matches",
						m, threads, i, seq[i].Matches, par[i].Matches)
				}
				if !reflect.DeepEqual(seq[i].PerFSA, par[i].PerFSA) {
					t.Fatalf("M=%d T=%d program %d: per-FSA mismatch", m, threads, i)
				}
			}
		}
	}
}

func TestRunParallelEmpty(t *testing.T) {
	got, err := RunParallel(nil, []byte("x"), 4, Config{})
	if got != nil || err != nil {
		t.Fatalf("got %v, err %v", got, err)
	}
}

func TestRunParallelThreadClamping(t *testing.T) {
	ps := buildPrograms(t, 1, []string{"ab", "cd"})
	res, err := RunParallel(ps, []byte("abcd"), 100, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results=%d", len(res))
	}
	if res[0].Matches != 1 || res[1].Matches != 1 {
		t.Fatalf("matches %d %d", res[0].Matches, res[1].Matches)
	}
	res, err = RunParallel(ps, []byte("abcd"), -1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if TotalMatches(res) != 2 {
		t.Fatalf("total=%d", TotalMatches(res))
	}
}

// TestRunParallelDefaultThreadsGoroutineBound pins the threads ≤ 0 clamp:
// the worker count is min(len(programs), GOMAXPROCS), never one goroutine
// per program. The regression this guards launched len(programs) workers
// for a CPU-bound scan — 64 goroutines here, thousands on a real ruleset.
func TestRunParallelDefaultThreadsGoroutineBound(t *testing.T) {
	checkNoGoroutineLeak(t)
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	patterns := make([]string, 64)
	for i := range patterns {
		patterns[i] = "x" + string(rune('a'+i%26)) + "y+"
	}
	ps := buildPrograms(t, 1, patterns)
	in := make([]byte, 16<<10)
	for i := range in {
		in[i] = byte('a' + i%3)
	}

	before := runtime.NumGoroutine()
	var peak atomic.Int64
	cfg := Config{
		// Every worker polls between 512-byte blocks, so the peak sample
		// observes the pool at full occupancy.
		Checkpoint: func() error {
			g := int64(runtime.NumGoroutine())
			for {
				p := peak.Load()
				if g <= p || peak.CompareAndSwap(p, g) {
					return nil
				}
			}
		},
		CheckpointEvery: 512,
	}
	for _, threads := range []int{0, -1} {
		peak.Store(0)
		if _, err := RunParallel(ps, in, threads, cfg); err != nil {
			t.Fatal(err)
		}
		// The pool adds at most GOMAXPROCS goroutines over the baseline;
		// allow a little slack for unrelated runtime goroutines, far below
		// the len(programs) = 64 a regression would launch.
		if got := peak.Load() - int64(before); got > 4+2 {
			t.Fatalf("threads=%d: observed %d extra goroutines, want <= GOMAXPROCS(4)", threads, got)
		}
	}
}

// TestRunOnePanicPartialAccounting pins the roll-forward contract of worker
// panic containment: the Result slot keeps everything accumulated before the
// panic — matches already delivered through OnMatch, bytes of completed
// checkpoint blocks — instead of being zeroed, so aggregate telemetry stays
// consistent with what callers observed.
func TestRunOnePanicPartialAccounting(t *testing.T) {
	checkNoGoroutineLeak(t)
	ps := buildPrograms(t, 1, []string{"ab"})
	in := make([]byte, 1<<10)
	for i := range in {
		if i%2 == 0 {
			in[i] = 'a'
		} else {
			in[i] = 'b'
		}
	}
	// WorkerPanic hit sites: task start (hit 1), then every checkpoint
	// poll — before the block at offset 0 (hit 2) and before the block at
	// offset 256 (hit 3). Firing on hit 3 panics mid-scan with exactly one
	// 256-byte block completed.
	inj := faultpoint.New(faultpoint.OnHit(faultpoint.WorkerPanic, 3))
	var delivered atomic.Int64
	cfg := Config{
		Faults:          inj,
		CheckpointEvery: 256,
		OnMatch:         func(fsa, end int) { delivered.Add(1) },
	}
	res, err := RunParallel(ps, in, 1, cfg)
	var wp *WorkerPanicError
	if !errors.As(err, &wp) {
		t.Fatalf("want *WorkerPanicError, got %T: %v", err, err)
	}
	if wp.Automaton != 0 {
		t.Fatalf("panic attributed to automaton %d, want 0", wp.Automaton)
	}
	if res[0].Symbols != 256 {
		t.Fatalf("partial Symbols = %d, want 256 (one completed block)", res[0].Symbols)
	}
	// "ab" ends at every odd offset: 128 matches in the completed block,
	// every one already delivered through OnMatch before the panic.
	if res[0].Matches != 128 || delivered.Load() != res[0].Matches {
		t.Fatalf("partial Matches = %d (delivered %d), want 128 both",
			res[0].Matches, delivered.Load())
	}
	if inj.Fired(faultpoint.WorkerPanic) != 1 {
		t.Fatalf("WorkerPanic fired %d times, want 1", inj.Fired(faultpoint.WorkerPanic))
	}
}

func TestTotalMatches(t *testing.T) {
	rs := []Result{{Matches: 3}, {Matches: 4}}
	if TotalMatches(rs) != 7 {
		t.Fatal("TotalMatches wrong")
	}
}

func BenchmarkRunParallel(b *testing.B) {
	patterns := make([]string, 32)
	for i := range patterns {
		patterns[i] = "p" + string(rune('a'+i%26)) + "[xy]z+"
	}
	ps := buildPrograms(b, 4, patterns)
	in := make([]byte, 32<<10)
	rnd := rand.New(rand.NewSource(2))
	for i := range in {
		in[i] = byte('a' + rnd.Intn(26))
	}
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunParallel(ps, in, 4, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRunParallelContainsWorkerPanic(t *testing.T) {
	checkNoGoroutineLeak(t)
	ps := buildPrograms(t, 1, []string{"ab", "cd", "ef"})
	in := []byte("abcdef")
	// A panicking user callback is the realistic in-worker crash: it must
	// surface as a typed error, not abort the process, and the automata
	// that did not panic must still report their matches.
	cfg := Config{OnMatch: func(fsa, end int) {
		if end == 3 { // the "cd" match
			panic("injected failure")
		}
	}}
	for _, threads := range []int{1, 2, 3} {
		res, err := RunParallel(ps, in, threads, cfg)
		if err == nil {
			t.Fatalf("threads=%d: panic not surfaced as error", threads)
		}
		var wp *WorkerPanicError
		if !errors.As(err, &wp) {
			t.Fatalf("threads=%d: want *WorkerPanicError, got %T: %v", threads, err, err)
		}
		if wp.Automaton != 1 || wp.Value != "injected failure" {
			t.Fatalf("threads=%d: wrong panic attribution: %+v", threads, wp)
		}
		if len(wp.Stack) == 0 {
			t.Fatalf("threads=%d: missing stack trace", threads)
		}
		if res[0].Matches != 1 || res[2].Matches != 1 {
			t.Fatalf("threads=%d: surviving automata lost matches: %+v", threads, res)
		}
	}
}

func TestRunParallelCheckpointCancel(t *testing.T) {
	checkNoGoroutineLeak(t)
	ps := buildPrograms(t, 1, []string{"ab", "cd"})
	in := make([]byte, 1<<20)
	wantErr := errors.New("deadline exceeded")
	var calls atomic.Int32
	cfg := Config{
		Checkpoint:      func() error { calls.Add(1); return wantErr },
		CheckpointEvery: 4096,
	}
	_, err := RunParallel(ps, in, 2, cfg)
	if !errors.Is(err, wantErr) {
		t.Fatalf("want checkpoint error, got %v", err)
	}
	if got := calls.Load(); got != 2 { // first poll of each automaton cancels it
		t.Fatalf("checkpoint polled %d times, want 2", got)
	}
}

// TestRunParallelInjectedPanic drives the WorkerPanic fault point through
// RunParallel's containment: the injected panic surfaces as a typed
// *WorkerPanicError, surviving automata keep their matches, workers are all
// joined (no goroutine leak), and the schedule's firing count matches the
// errors observed.
func TestRunParallelInjectedPanic(t *testing.T) {
	checkNoGoroutineLeak(t)
	ps := buildPrograms(t, 1, []string{"ab", "cd", "ef"})
	in := []byte("abcdef")
	inj := faultpoint.New(faultpoint.OnHit(faultpoint.WorkerPanic, 2))
	cfg := Config{Faults: inj}
	for threads := 1; threads <= 4; threads++ {
		res, err := RunParallel(ps, in, threads, cfg)
		if inj.Fired(faultpoint.WorkerPanic) == 0 {
			// The schedule fires once per injector lifetime; only the first
			// round can panic.
			if err != nil {
				t.Fatalf("threads=%d: error without a fired fault: %v", threads, err)
			}
			continue
		}
		if err != nil {
			var wp *WorkerPanicError
			if !errors.As(err, &wp) {
				t.Fatalf("threads=%d: want *WorkerPanicError, got %T: %v", threads, err, err)
			}
			var alive int64
			for _, r := range res {
				alive += r.Matches
			}
			if alive != 2 { // the two automata that did not panic
				t.Fatalf("threads=%d: surviving automata reported %d matches, want 2", threads, alive)
			}
		}
	}
	if inj.Fired(faultpoint.WorkerPanic) != 1 {
		t.Fatalf("WorkerPanic fired %d times, want exactly 1 (OnHit schedule)",
			inj.Fired(faultpoint.WorkerPanic))
	}
}
