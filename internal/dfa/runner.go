package dfa

import (
	"repro/internal/faultpoint"
)

// DefaultCheckpointEvery mirrors the iMFAnt engine's checkpoint cadence:
// cancellation and deadlines are observed about every 4 KiB.
const DefaultCheckpointEvery = 4096

// Config parameterizes one scan or stream on a Runner, mirroring
// engine.Config for the parts an eager DFA needs. The DFA is built for
// unanchored scan semantics only, so there is no held-byte or stream-end
// machinery: every fed byte is consumed immediately.
type Config struct {
	// OnMatch receives every (rule, end offset) match event; end offsets
	// are absolute across Feeds. nil counts only.
	OnMatch func(rule, end int)
	// Checkpoint, when non-nil, is polled every CheckpointEvery bytes; a
	// non-nil return cancels the scan (sticky, see Err).
	Checkpoint func() error
	// CheckpointEvery overrides the polling cadence; 0 selects
	// DefaultCheckpointEvery.
	CheckpointEvery int
	// Faults arms the chunk-stall injection site, like the engines'.
	Faults *faultpoint.Injector
}

// Result summarizes one completed scan.
type Result struct {
	Matches int64
	Symbols int64
	// PerRule counts matches per rule index within the group.
	PerRule []int64
}

// Totals are cumulative counters over every scan a Runner has executed,
// including the one in progress — the telemetry feed, folded at scan
// granularity like engine.Totals.
type Totals struct {
	Scans   int64
	Symbols int64
	Matches int64
}

// Runner executes one DFA with resumable state: Feed consumes chunks of a
// stream (the current DFA state and the absolute offset carry across calls)
// and End completes the scan. Not safe for concurrent use.
type Runner struct {
	d      *DFA
	cfg    Config
	q      int32
	base   int64 // absolute offset of the next byte
	stop   error
	res    Result
	totals Totals
	began  bool
}

// NewRunner returns a reusable matching context for the DFA.
func NewRunner(d *DFA) *Runner { return &Runner{d: d} }

// Begin starts a scan. Calling Begin while one is in progress abandons it
// without folding totals. The runner reuses its Result.PerRule slice: a
// Result returned by End is valid until the next Begin.
func (r *Runner) Begin(cfg Config) {
	r.cfg = cfg
	r.q = r.d.Start
	r.base = 0
	r.stop = nil
	per := r.res.PerRule
	if per == nil {
		per = make([]int64, r.d.NumRules)
	}
	clear(per)
	r.res = Result{PerRule: per}
	r.began = true
}

// Feed consumes the next chunk. A cancelled runner ignores further input.
func (r *Runner) Feed(chunk []byte) {
	if r.stop != nil {
		return
	}
	every := r.cfg.CheckpointEvery
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	if r.cfg.Checkpoint == nil {
		r.feedChunk(chunk)
		return
	}
	for off := 0; ; off += every {
		if err := r.cfg.Checkpoint(); err != nil {
			r.stop = err
			return
		}
		end := off + every
		if end >= len(chunk) {
			r.feedChunk(chunk[off:])
			return
		}
		r.feedChunk(chunk[off:end])
	}
}

// feedChunk is the uninterruptible Feed body: one table lookup per byte.
func (r *Runner) feedChunk(chunk []byte) {
	if r.cfg.Faults != nil {
		r.cfg.Faults.Stall()
	}
	d := r.d
	q := r.q
	base := r.base
	onMatch := r.cfg.OnMatch
	for pos := 0; pos < len(chunk); pos++ {
		q = d.Next[int(q)<<8|int(chunk[pos])]
		if acc := d.Accept[q]; acc != nil {
			end := int(base) + pos
			acc.ForEach(func(rule int) {
				r.res.Matches++
				r.res.PerRule[rule]++
				if onMatch != nil {
					onMatch(rule, end)
				}
			})
		}
	}
	r.q = q
	r.base = base + int64(len(chunk))
	r.res.Symbols = r.base
}

// End completes the scan, folds it into the cumulative Totals, and returns
// its Result. Calling End again without a Begin returns an empty Result.
func (r *Runner) End() Result {
	if !r.began {
		return Result{}
	}
	r.began = false
	res := r.res
	r.totals.Scans++
	r.totals.Symbols += res.Symbols
	r.totals.Matches += res.Matches
	return res
}

// Err returns the Checkpoint error that cancelled the scan, if any.
func (r *Runner) Err() error { return r.stop }

// Totals returns the cumulative counters, including a scan in progress.
func (r *Runner) Totals() Totals {
	t := r.totals
	if r.began {
		t.Symbols += r.res.Symbols
		t.Matches += r.res.Matches
	}
	return t
}

// Run executes one whole-input scan: Begin, Feed, End.
func (r *Runner) Run(input []byte, cfg Config) Result {
	r.Begin(cfg)
	r.Feed(input)
	return r.End()
}
