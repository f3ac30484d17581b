package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/faultpoint"
)

// WorkerPanicError reports a panic recovered inside a RunParallel worker:
// the automaton being executed, the recovered value, and the worker's stack
// at the point of the panic. The panic is contained to the failing
// automaton — the other workers finish their automata normally.
type WorkerPanicError struct {
	// Automaton is the index of the program whose execution panicked.
	Automaton int
	// Value is the recovered panic value.
	Value any
	// Stack is the worker goroutine's stack trace at the panic.
	Stack []byte
}

func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("engine: worker panic on automaton %d: %v", e.Automaton, e.Value)
}

// RunParallel executes a pool of programs over the same input using the
// multi-threaded scheme of §VI-C2 (see ForEach). The returned results are
// indexed like programs; the caller measures wall-clock latency around this
// call, which corresponds to the paper's "latency to compute all the REs of
// a benchmark".
//
// A worker panic (e.g. from a user-supplied OnMatch callback) surfaces as a
// *WorkerPanicError, and the automaton's Result slot keeps the partial
// result accumulated before the panic — every match already delivered
// through OnMatch and every byte already counted stays visible, so
// aggregate telemetry remains consistent with what callers observed.
// Checkpoint cancellations (Config.Checkpoint) surface the same way, one
// error per cancelled automaton. All failures are joined into the returned
// error.
func RunParallel(programs []*Program, input []byte, threads int, cfg Config) ([]Result, error) {
	if len(programs) == 0 {
		return nil, nil
	}
	results := make([]Result, len(programs))
	ids := make([]int, len(programs))
	for i := range ids {
		ids[i] = i
	}
	err := ForEach(ids, threads, cfg.Faults, cfg.Checkpoint, func(i int, check func() error) error {
		c := cfg
		c.Checkpoint = check
		if cfg.ProfileFor != nil {
			c.Profile = cfg.ProfileFor(i)
		}
		r := NewRunner(programs[i])
		// Deferred so a panic rolls the partial result forward too: the
		// completed checkpoint blocks and delivered match events up to the
		// panic (the interrupted block's bytes were never folded, so
		// Symbols stays exact).
		defer func() { results[i] = r.res }()
		r.Run(input, c)
		return r.Err()
	})
	return results, err
}

// ForEach runs task once per automaton id on the §VI-C2 worker pool: a fixed
// pool of threads workers, each taking the next id from a lock-free queue
// until none remain. threads ≤ 0 selects min(len(ids), GOMAXPROCS) workers
// — a 10k-automaton ruleset must not launch 10k goroutines for a CPU-bound
// scan.
//
// Each task runs under a pprof label carrying its automaton id, so CPU
// profiles of a parallel scan attribute samples to the MFSA that consumed
// them — the per-automaton view needed to decide which rule groups to
// reshard. A panic inside a task is contained and converted into a
// *WorkerPanicError for that id instead of aborting the process; the
// remaining ids still execute. check is handed to every task as its
// checkpoint; with faults armed, the WorkerPanic site fires before each task
// and inside every checkpoint poll, so a scheduled panic can land mid-scan
// with partial state to salvage. The task errors are joined.
func ForEach(ids []int, threads int, faults *faultpoint.Injector, check func() error,
	task func(id int, check func() error) error) error {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	if threads > len(ids) {
		threads = len(ids)
	}
	errs := make([]error, len(ids))
	if threads <= 1 {
		for j, id := range ids {
			errs[j] = runTask(id, faults, check, task)
		}
		return errors.Join(errs...)
	}
	// Lock-free work queue: a single atomic counter hands out ids, so
	// workers never contend on a mutex between executions.
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(threads)
	for t := 0; t < threads; t++ {
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(ids) {
					return
				}
				errs[j] = runTask(ids[j], faults, check, task)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runTask executes one ForEach task under its pprof label, with panic
// containment and the WorkerPanic fault sites armed.
func runTask(id int, faults *faultpoint.Injector, check func() error,
	task func(id int, check func() error) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &WorkerPanicError{Automaton: id, Value: v, Stack: debug.Stack()}
		}
	}()
	if faults != nil {
		if faults.Hit(faultpoint.WorkerPanic) {
			panic("faultpoint: injected worker panic")
		}
		inner := check
		check = func() error {
			if faults.Hit(faultpoint.WorkerPanic) {
				panic("faultpoint: injected worker panic (mid-scan)")
			}
			if inner != nil {
				return inner()
			}
			return nil
		}
	}
	pprof.Do(context.Background(), pprof.Labels("mfsa_automaton", strconv.Itoa(id)), func(context.Context) {
		err = task(id, check)
	})
	return err
}

// TotalMatches sums the match counts of a result set.
func TotalMatches(results []Result) int64 {
	var t int64
	for _, r := range results {
		t += r.Matches
	}
	return t
}
