// Package faultpoint is the fault-injection substrate of the matching
// engines: a registry of named fault points compiled into the hot paths
// behind the same one-nil-check pattern the profiler uses, so production
// scans pay a single predictable branch per chunk and tests can schedule
// deterministic or randomized fault storms through the exact degradation
// machinery — lazy-cache flush storms, forced thrash fallback, worker
// panics, stalled chunks, spurious prefilter wakes, allocation caps —
// that a long-running service will eventually hit for real.
//
// Every injected fault forces a transition the engines already implement
// and prove exact (flush, fallback, replay, panic containment, timeout),
// never a corruption: under any schedule a scan must still return either
// byte-identical matches to the fault-free oracle or a typed error. The
// chaos conformance suite asserts exactly that invariant.
//
// An *Injector is armed by threading it through engine.Config /
// lazydfa.Config (or Ruleset-wide via the imfant layer); a nil Injector is
// inert and free. All methods are safe for concurrent use — parallel
// workers share one Injector — and deterministic schedules stay
// deterministic per (point, hit-ordinal) even under concurrency.
package faultpoint

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Point names one instrumented site in the hot paths.
type Point uint8

const (
	// LazyFlush forces a whole-cache flush at the next lazy-DFA chunk
	// boundary. The flush spends the scan's flush budget, so a scheduled
	// storm drives the runner into its ordinary thrash-fallback path.
	LazyFlush Point = iota
	// LazyThrash forces an immediate thrash fallback to the iMFAnt engine
	// at the next lazy-DFA chunk boundary, as if the flush budget had just
	// run out.
	LazyThrash
	// AllocCap makes the next lazy-DFA cache insertion behave as if the
	// state cap had been reached — the allocation-pressure fault — taking
	// the flush-or-fallback path without the cache actually being full.
	AllocCap
	// WorkerPanic panics inside a parallel worker just before it executes
	// its automaton, exercising RunParallel's panic containment.
	WorkerPanic
	// ChunkStall sleeps for the injector's stall duration before a chunk
	// is processed — the slow/stalled input fault that, combined with
	// Options.ScanTimeout, exercises the timeout rung of the degradation
	// ladder deterministically.
	ChunkStall
	// PrefilterWake spuriously reports every literal factor of a block
	// scan as seen, waking all gated automata. Waking is always sound (the
	// prefilter only ever elides provably dead work), so the fault
	// adversarially exercises the ungated path without changing results.
	PrefilterWake
	// NumPoints is the number of fault points.
	NumPoints = iota
)

var pointNames = [NumPoints]string{
	LazyFlush:     "lazy-flush",
	LazyThrash:    "lazy-thrash",
	AllocCap:      "alloc-cap",
	WorkerPanic:   "worker-panic",
	ChunkStall:    "chunk-stall",
	PrefilterWake: "prefilter-wake",
}

func (p Point) String() string {
	if int(p) < len(pointNames) {
		return pointNames[p]
	}
	return fmt.Sprintf("faultpoint(%d)", uint8(p))
}

// A Schedule decides whether the n-th hit of a point fires (n counts from
// 1). Fire must be safe for concurrent use and should be a pure function
// of (p, n) so schedules replay deterministically regardless of goroutine
// interleaving.
type Schedule interface {
	Fire(p Point, n uint64) bool
}

// ScheduleFunc adapts a function to the Schedule interface.
type ScheduleFunc func(p Point, n uint64) bool

// Fire implements Schedule.
func (f ScheduleFunc) Fire(p Point, n uint64) bool { return f(p, n) }

// Never is the inert schedule: no point ever fires.
var Never Schedule = ScheduleFunc(func(Point, uint64) bool { return false })

// OnHit returns a schedule firing point p exactly once, on its n-th hit.
func OnHit(p Point, n uint64) Schedule {
	return ScheduleFunc(func(q Point, m uint64) bool { return q == p && m == n })
}

// Every returns a schedule firing point p on every n-th hit (n ≥ 1).
func Every(p Point, n uint64) Schedule {
	if n == 0 {
		n = 1
	}
	return ScheduleFunc(func(q Point, m uint64) bool { return q == p && m%n == 0 })
}

// Union combines schedules: a point fires when any member fires.
func Union(ss ...Schedule) Schedule {
	return ScheduleFunc(func(p Point, n uint64) bool {
		for _, s := range ss {
			if s != nil && s.Fire(p, n) {
				return true
			}
		}
		return false
	})
}

// Random returns a seeded randomized schedule: each hit of each point
// fires independently with the given per-point probability in [0, 1].
// The decision is a pure hash of (seed, point, ordinal), so a schedule is
// reproducible from its seed alone and race-free without locking.
func Random(seed uint64, prob map[Point]float64) Schedule {
	var thresh [NumPoints]uint64
	for p, pr := range prob {
		if int(p) >= NumPoints {
			continue
		}
		switch {
		case pr >= 1:
			thresh[p] = ^uint64(0)
		case pr > 0:
			thresh[p] = uint64(pr * float64(^uint64(0)))
		}
	}
	return ScheduleFunc(func(p Point, n uint64) bool {
		t := thresh[p]
		return t != 0 && splitmix64(seed^uint64(p)<<56^n) < t
	})
}

// FromBytes derives a deterministic schedule from an opaque byte string —
// the fuzz-target decoder. Bytes are consumed in (point, mode, param)
// triples: point selects the fault point (mod NumPoints), mode selects
// deterministic (every param-th hit) or randomized (param/255 probability)
// firing. Any input, including empty or truncated, yields a valid
// schedule, so fuzzers can explore the space freely.
func FromBytes(data []byte) Schedule {
	var ss []Schedule
	for i := 0; i+2 < len(data); i += 3 {
		p := Point(data[i] % NumPoints)
		mode, param := data[i+1], data[i+2]
		if mode%2 == 0 {
			ss = append(ss, Every(p, uint64(param%16)+1))
		} else {
			ss = append(ss, Random(uint64(i)<<8|uint64(param),
				map[Point]float64{p: float64(param) / 255}))
		}
	}
	if len(ss) == 0 {
		return Never
	}
	return Union(ss...)
}

// splitmix64 is the SplitMix64 finalizer — a cheap, well-distributed
// 64-bit hash used to make randomized schedules pure and lock-free.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Injector arms a schedule at the fault-point sites. The zero value is not
// usable; create one with New. A nil *Injector is inert: Hit and Stall
// return their zero results, so call sites guard with a single nil check.
type Injector struct {
	sched Schedule
	stall time.Duration
	// hits counts site visits per point (the schedule's ordinal domain);
	// fired counts the subset that actually fired.
	hits  [NumPoints]atomic.Uint64
	fired [NumPoints]atomic.Int64
}

// New returns an Injector driving the given schedule. A nil schedule never
// fires (the injector still counts hits).
func New(sched Schedule) *Injector {
	if sched == nil {
		sched = Never
	}
	return &Injector{sched: sched}
}

// WithStall sets the ChunkStall sleep duration and returns the injector.
func (in *Injector) WithStall(d time.Duration) *Injector {
	in.stall = d
	return in
}

// Hit records one visit of point p and reports whether the fault fires.
// Nil-receiver safe: a nil injector never fires.
func (in *Injector) Hit(p Point) bool {
	if in == nil {
		return false
	}
	n := in.hits[p].Add(1)
	if !in.sched.Fire(p, n) {
		return false
	}
	in.fired[p].Add(1)
	return true
}

// Stall records one ChunkStall visit and, when it fires, sleeps for the
// configured stall duration. Nil-receiver safe.
func (in *Injector) Stall() {
	if in == nil {
		return
	}
	if in.Hit(ChunkStall) && in.stall > 0 {
		time.Sleep(in.stall)
	}
}

// Hits returns the number of times point p's site was visited.
func (in *Injector) Hits(p Point) uint64 {
	if in == nil {
		return 0
	}
	return in.hits[p].Load()
}

// Fired returns the number of times point p actually fired.
func (in *Injector) Fired(p Point) int64 {
	if in == nil {
		return 0
	}
	return in.fired[p].Load()
}

// TotalFired returns the number of faults fired across all points.
func (in *Injector) TotalFired() int64 {
	if in == nil {
		return 0
	}
	var t int64
	for p := 0; p < NumPoints; p++ {
		t += in.fired[p].Load()
	}
	return t
}
