package engine

import (
	"sync/atomic"

	"repro/internal/hist"
)

// DefaultProfileStride is the default symbol-sampling stride of the state
// profiler: one activation-vector sample per 64 input bytes. At that rate
// the sampling cost (a walk of the active set every stride) stays far
// below the per-byte traversal cost while visit counts on megabyte-scale
// streams still resolve sub-percent heat differences.
const DefaultProfileStride = 64

// Profile is a sampling execution profiler for one Program, shared by
// every Runner (iMFAnt or lazy-DFA) executing that program. Every stride
// input symbols, the executing runner samples its live activation vector:
// each active state's visit counter is incremented, each active (state,
// FSA) pair is attributed to its FSA, and the active-set size is recorded
// into a histogram. All counters are atomic, so concurrent scanners and
// stream matchers fold into one Profile without locks, and a snapshot can
// be taken mid-scan.
//
// Sampling is arranged by the runners so that the per-byte hot loops are
// untouched: a profiled Feed is split into stride-sized blocks outside
// the traversal loop, and the sample happens at block boundaries. With
// Profile disabled (Config.Profile == nil) the only added cost is one nil
// check per fed chunk.
type Profile struct {
	p       *Program
	stride  int
	samples atomic.Int64
	visits  []atomic.Int64 // per state: active occurrences at sample points
	fsa     []atomic.Int64 // per FSA: active (state, FSA) pairs at sample points
	pairs   hist.Histogram // active (state, FSA) pairs per sample
}

// NewProfile returns a profiler for p sampling every stride symbols;
// stride ≤ 0 selects DefaultProfileStride.
func NewProfile(p *Program, stride int) *Profile {
	if stride <= 0 {
		stride = DefaultProfileStride
	}
	return &Profile{
		p:      p,
		stride: stride,
		visits: make([]atomic.Int64, p.numStates),
		fsa:    make([]atomic.Int64, p.numFSAs),
	}
}

// Stride returns the sampling stride in input symbols.
func (pr *Profile) Stride() int { return pr.stride }

// Samples returns the number of activation-vector samples taken.
func (pr *Profile) Samples() int64 { return pr.samples.Load() }

// Visits returns a snapshot of the per-state visit counters, indexed by
// MFSA state.
func (pr *Profile) Visits() []int64 {
	out := make([]int64, len(pr.visits))
	for i := range pr.visits {
		out[i] = pr.visits[i].Load()
	}
	return out
}

// FSAActive returns a snapshot of the per-FSA activity counters: the
// number of sampled (state, FSA) pairs in which the FSA was active,
// indexed by merged-FSA identifier.
func (pr *Profile) FSAActive() []int64 {
	out := make([]int64, len(pr.fsa))
	for i := range pr.fsa {
		out[i] = pr.fsa[i].Load()
	}
	return out
}

// ActivePairs returns the distribution of active (state, FSA) pairs per
// sample — the sampled form of Table II's active-set size.
func (pr *Profile) ActivePairs() hist.Snapshot { return pr.pairs.Snapshot() }

// sampleVector folds one iMFAnt state-vector sample (the engine Runner's
// live vector) into the profile.
func (pr *Profile) sampleVector(v *vector, W int) {
	var pairs int64
	for _, q := range v.dirty {
		pr.visits[q].Add(1)
		base := int(q) * W
		for w := 0; w < W; w++ {
			m := v.j[base+w]
			pairs += int64(popcount(m))
			for ; m != 0; m &= m - 1 {
				pr.fsa[w<<6+trailingZeros(m)].Add(1)
			}
		}
	}
	pr.pairs.Record(pairs)
	pr.samples.Add(1)
}

// SamplePacked folds n identical samples of one packed activation vector
// (the lazy-DFA engine's current cached state) in a single pass. n > 1 is
// the bulk catch-up of an accelerated jump: a lazy-DFA runner parked in an
// accelerable state consumes many bytes without the vector changing, so the
// k stride boundaries a jump crosses are semantically k samples of the same
// vector; recording them in bulk keeps heat shares and sample counts
// byte-comparable with an unaccelerated scan while doing the vector walk
// once.
func (pr *Profile) SamplePacked(vec []uint64, n int64) {
	if n <= 0 {
		return
	}
	W := pr.p.words
	var pairs int64
	for k := 0; k < len(vec); k += 1 + W {
		pr.visits[vec[k]].Add(n)
		for w, m := range vec[k+1 : k+1+W] {
			pairs += int64(popcount(m))
			for ; m != 0; m &= m - 1 {
				pr.fsa[w<<6+trailingZeros(m)].Add(n)
			}
		}
	}
	pr.pairs.RecordN(pairs, n)
	pr.samples.Add(n)
}

// feedProfiled is the profiled form of feedChunk: it feeds chunk through
// the unmodified hot loop in stride-sized blocks and samples the live
// activation vector at each block boundary, so sampling adds no work to
// the per-byte path. Partial strides carry across chunks via profFill.
func (r *Runner) feedProfiled(chunk []byte, final bool) {
	pr := r.cfg.Profile
	for {
		n := pr.stride - r.profFill
		if n > len(chunk) {
			r.feedBody(chunk, final)
			r.profFill += len(chunk)
			return
		}
		blockFinal := final && n == len(chunk)
		r.feedBody(chunk[:n], blockFinal)
		if r.stop != nil {
			return
		}
		r.profFill = 0
		pr.sampleVector(r.cur, r.p.words)
		chunk = chunk[n:]
		if len(chunk) == 0 {
			return
		}
	}
}
