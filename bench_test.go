package imfant

// Repository-level benchmarks: one per table and figure of the paper's
// evaluation (§VI). Each benchmark drives the same code path as
// cmd/mfsabench but at a reduced scale so `go test -bench=.` completes in
// minutes on a laptop; run `mfsabench -all -paper` for the full-scale
// regeneration. Per-experiment details live in DESIGN.md and EXPERIMENTS.md.

import (
	"context"
	"io"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/lazydfa"
	"repro/internal/pipeline"
	"repro/internal/rex"
	"repro/internal/similarity"
)

// benchOpts returns a scaled-down experiment configuration over a single
// dataset, to keep a benchmark iteration well-bounded.
func benchOpts(abbr string) experiments.Opts {
	o := experiments.Default()
	o.Datasets = []string{abbr}
	o.StreamSize = 32 << 10
	o.Reps = 1
	o.Ms = []int{1, 10, 0}
	o.Threads = []int{1, 2, 4}
	o.SimilaritySample = 60
	return o
}

func newRunner(b *testing.B, abbr string) *experiments.Runner {
	b.Helper()
	r, err := experiments.New(benchOpts(abbr))
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkFig1Indel measures the Fig. 1 computation: all-pairs normalized
// INDEL similarity of a ruleset (bit-parallel LCS underneath).
func BenchmarkFig1Indel(b *testing.B) {
	s, err := dataset.ByAbbr("BRO")
	if err != nil {
		b.Fatal(err)
	}
	pats := s.Patterns()[:60]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		similarity.DatasetSimilarity(pats)
	}
}

// BenchmarkTable1Characteristics measures the Table I pipeline: compiling a
// whole dataset to optimized standalone FSAs and aggregating its
// characteristics.
func BenchmarkTable1Characteristics(b *testing.B) {
	s, err := dataset.ByAbbr("PEN")
	if err != nil {
		b.Fatal(err)
	}
	pats := s.Patterns()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := pipeline.Compile(pats, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		states := 0
		for _, a := range out.FSAs {
			states += a.NumStates
		}
		if states == 0 {
			b.Fatal("no states")
		}
	}
}

// BenchmarkFig7Compression measures the Fig. 7 path: the full merge sweep
// plus compression accounting (dominated by Algorithm 1).
func BenchmarkFig7Compression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner(b, "BRO")
		if _, err := r.Fig7(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8CompilationStages measures the Fig. 8 path: repeated
// full-pipeline compilations with per-stage timing.
func BenchmarkFig8CompilationStages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner(b, "PEN")
		if _, err := r.Fig8(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Activity measures the Table II path: the fully merged MFSA
// traversal with activation-set statistics enabled.
func BenchmarkTable2Activity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner(b, "BRO")
		if _, err := r.Table2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9SingleThread measures the Fig. 9 path: the single-thread
// execution sweep across merging factors with throughput accounting.
func BenchmarkFig9SingleThread(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner(b, "BRO")
		if _, err := r.Fig9(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10MultiThread measures the Fig. 10 path: the M × T sweep with
// the work-pool executor.
func BenchmarkFig10MultiThread(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner(b, "BRO")
		if _, err := r.Fig10(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIMFAntThroughput isolates the engine hot loop — the per-byte
// cost of iMFAnt on a fully merged dataset MFSA — reporting bytes/s.
func BenchmarkIMFAntThroughput(b *testing.B) {
	s, err := dataset.ByAbbr("BRO")
	if err != nil {
		b.Fatal(err)
	}
	out, err := pipeline.Compile(s.Patterns(), 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	p := engine.NewProgram(out.MFSAs[0])
	in := s.Stream(64<<10, 0)
	runner := engine.NewRunner(p)
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner.Run(in, engine.Config{})
	}
}

// BenchmarkIMFAntKeepThroughput is the keep-semantics (Eq. 6) variant of the
// hot loop — the apples-to-apples baseline for the lazy-DFA mode, which
// caches keep-mode transitions.
func BenchmarkIMFAntKeepThroughput(b *testing.B) {
	s, err := dataset.ByAbbr("BRO")
	if err != nil {
		b.Fatal(err)
	}
	out, err := pipeline.Compile(s.Patterns(), 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	p := engine.NewProgram(out.MFSAs[0])
	in := s.Stream(64<<10, 0)
	runner := engine.NewRunner(p)
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner.Run(in, engine.Config{KeepOnMatch: true})
	}
}

// BenchmarkLazyDFAThroughput measures the lazy-DFA mode on the same merged
// MFSA and input as BenchmarkIMFAntKeepThroughput. The cache is warmed with
// one untimed scan; steady-state iterations then run almost entirely out of
// the byte-class-compressed transition table.
func BenchmarkLazyDFAThroughput(b *testing.B) {
	s, err := dataset.ByAbbr("BRO")
	if err != nil {
		b.Fatal(err)
	}
	out, err := pipeline.Compile(s.Patterns(), 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	p := engine.NewProgram(out.MFSAs[0])
	m := lazydfa.New(p, lazydfa.Options{KeepOnMatch: true})
	in := s.Stream(64<<10, 0)
	runner := lazydfa.NewRunner(m)
	cfg := lazydfa.Config{}
	res := runner.Run(in, cfg) // warm the cache
	if res.FellBack {
		b.Fatal("warm-up fell back to iMFAnt; raise MaxStates")
	}
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner.Run(in, cfg)
	}
}

// BenchmarkLazyDFAPopThroughput is BenchmarkLazyDFAThroughput under the
// paper's default Eq. 5 pop semantics, which the lazy DFA caches over
// pre-pop state vectors.
func BenchmarkLazyDFAPopThroughput(b *testing.B) {
	s, err := dataset.ByAbbr("BRO")
	if err != nil {
		b.Fatal(err)
	}
	out, err := pipeline.Compile(s.Patterns(), 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	m := lazydfa.New(engine.NewProgram(out.MFSAs[0]))
	in := s.Stream(64<<10, 0)
	runner := lazydfa.NewRunner(m)
	cfg := lazydfa.Config{}
	if res := runner.Run(in, cfg); res.FellBack { // warm the cache
		b.Fatal("warm-up fell back to iMFAnt; raise MaxStates")
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner.Run(in, cfg)
	}
}

// BenchmarkScannerPacketsThroughput drives the DPI block-scan shape end to
// end: one reused Scanner.FindAllContext per payload over the BRO, TCP and
// snort web-attacks rules at MergeFactor 10, on seeded payloads of 64–1500
// bytes (skewed small, one in four carrying a sample of a random rule). One
// op is one payload; MB/s is the payload bytes over the elapsed time.
func BenchmarkScannerPacketsThroughput(b *testing.B) {
	var pats []string
	for _, abbr := range []string{"BRO", "TCP"} {
		s, err := dataset.ByAbbr(abbr)
		if err != nil {
			b.Fatal(err)
		}
		pats = append(pats, s.Patterns()...)
	}
	pats = append(pats, snortPatterns(b)...)
	rs, err := Compile(pats, Options{MergeFactor: 10})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	payloads := make([][]byte, 1000)
	for i := range payloads {
		u := rng.Float64()
		p := make([]byte, 64+int(1436*u*u*u))
		for j := range p {
			if i%3 == 0 {
				p[j] = byte(rng.Intn(256))
			} else {
				p[j] = byte(0x20 + rng.Intn(0x5f))
			}
		}
		if rng.Intn(4) == 0 {
			ast, err := rex.Parse(pats[rng.Intn(len(pats))])
			if err != nil {
				b.Fatal(err)
			}
			s := dataset.SampleString(rng, ast)
			copy(p[rng.Intn(len(p)):], s)
		}
		payloads[i] = p
	}
	sc := rs.NewScanner()
	ctx := context.Background()
	for _, p := range payloads { // warm the lazy-DFA tables
		sc.FindAllContext(ctx, p)
	}
	var n int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := payloads[i%len(payloads)]
		if _, err := sc.FindAllContext(ctx, p); err != nil {
			b.Fatal(err)
		}
		n += int64(len(p))
	}
	b.ReportMetric(float64(n)/1e6/b.Elapsed().Seconds(), "MB/s")
}

// BenchmarkCountParallelDS9Throughput drives the bulk shape end to end on
// the Dotstar09 rules, which are all dot-star literal chains: CountParallel
// at 2 threads over the dataset's 1 MiB stream at MergeFactor 10, after one
// warming call. One op is one call; MB/s is the scanned bytes over the
// elapsed time.
func BenchmarkCountParallelDS9Throughput(b *testing.B) {
	s, err := dataset.ByAbbr("DS9")
	if err != nil {
		b.Fatal(err)
	}
	rs, err := Compile(s.Patterns(), Options{MergeFactor: 10})
	if err != nil {
		b.Fatal(err)
	}
	in := s.Stream(1<<20, 0)
	if _, err := rs.CountParallel(in, 2); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rs.CountParallel(in, 2); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*float64(len(in))/1e6/b.Elapsed().Seconds(), "MB/s")
}

// BenchmarkStreamFlowsThroughput drives the many-open-flows shape end to
// end: 64 StreamMatchers open at once over the BRO, TCP and PEN rules at
// MergeFactor 10 with KeepOnMatch, fed 256-byte Writes in turn; each flow
// closes after 64 Writes and a fresh one opens in its place, so stream
// setup and table warm-up recur. Flow bodies are seeded bytes, one in three binary,
// with a sample of a random rule planted in every KiB. One op is one
// Write; MB/s is the written bytes over the elapsed time.
func BenchmarkStreamFlowsThroughput(b *testing.B) {
	var pats []string
	for _, abbr := range []string{"BRO", "TCP", "PEN"} {
		s, err := dataset.ByAbbr(abbr)
		if err != nil {
			b.Fatal(err)
		}
		pats = append(pats, s.Patterns()...)
	}
	rs, err := Compile(pats, Options{MergeFactor: 10, KeepOnMatch: true})
	if err != nil {
		b.Fatal(err)
	}
	const flows, writes, chunk = 64, 64, 256
	rng := rand.New(rand.NewSource(1))
	bodies := make([][]byte, 4*flows)
	for i := range bodies {
		p := make([]byte, writes*chunk)
		for j := range p {
			if i%3 == 0 {
				p[j] = byte(rng.Intn(256))
			} else {
				p[j] = byte(0x20 + rng.Intn(0x5f))
			}
		}
		for off := 0; off < len(p); off += 1 << 10 {
			ast, err := rex.Parse(pats[rng.Intn(len(pats))])
			if err != nil {
				b.Fatal(err)
			}
			copy(p[off+rng.Intn(1<<10):], dataset.SampleString(rng, ast))
		}
		bodies[i] = p
	}
	sms := make([]*StreamMatcher, flows)
	body := make([][]byte, flows)
	opened := 0
	open := func(k int) {
		sms[k], body[k] = rs.NewStreamMatcher(nil), bodies[opened%len(bodies)]
		opened++
	}
	write := func(i int) {
		k := i % flows
		if _, err := sms[k].Write(body[k][:chunk]); err != nil {
			b.Fatal(err)
		}
		if body[k] = body[k][chunk:]; len(body[k]) == 0 {
			if err := sms[k].Close(); err != nil {
				b.Fatal(err)
			}
			open(k)
		}
	}
	for k := range sms {
		open(k)
	}
	for i := range flows * writes { // warm the lazy-DFA tables
		write(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write(i)
	}
	b.ReportMetric(float64(b.N)*chunk/1e6/b.Elapsed().Seconds(), "MB/s")
}

// BenchmarkINFAntBaseline isolates the baseline: the same ruleset executed
// as separate per-RE automata on one thread (the M=1 configuration the
// paper compares against).
func BenchmarkINFAntBaseline(b *testing.B) {
	s, err := dataset.ByAbbr("BRO")
	if err != nil {
		b.Fatal(err)
	}
	out, err := pipeline.Compile(s.Patterns(), 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	programs := make([]*engine.Program, len(out.MFSAs))
	for i, z := range out.MFSAs {
		programs[i] = engine.NewProgram(z)
	}
	in := s.Stream(64<<10, 0)
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.RunParallel(programs, in, 1, engine.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublicAPICompile measures end-user compile latency through the
// public facade: one PEN slice through the default pipeline, and slices
// that exercise plan lowering at MergeFactor 10 — BRO+TCP groups lower to
// Aho–Corasick and the default engine, the snort-derived web-attacks rules
// to eager DFAs.
func BenchmarkPublicAPICompile(b *testing.B) {
	slice := func(abbr string, n int) []string {
		s, err := dataset.ByAbbr(abbr)
		if err != nil {
			b.Fatal(err)
		}
		return s.Patterns()[:n]
	}
	broTCP := append(slice("BRO", 40), slice("TCP", 40)...)
	web := snortPatterns(b)
	cases := []struct {
		name string
		pats []string
		opts Options
	}{
		{"PEN", slice("PEN", 60), Options{MergeFactor: 0}},
		{"BRO+TCP/merge10", broTCP, Options{MergeFactor: 10}},
		{"BRO+TCP/merge10/keep", broTCP, Options{MergeFactor: 10, KeepOnMatch: true}},
		{"snort/merge10", web, Options{MergeFactor: 10}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := CompileLax(c.pats, c.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMinSubPath measures the merge-heuristic ablation: the
// compression/run-time trade-off of the Merging Structure length threshold.
func BenchmarkAblationMinSubPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner(b, "PEN")
		if _, err := r.Ablation(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineSpectrum measures the NFA/MFSA/DFA/D2FA representation
// comparison (the §II spectrum study).
func BenchmarkBaselineSpectrum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner(b, "BRO")
		if _, err := r.Baseline(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStride2 measures the 2-stride experiment path (multi-striding,
// §VII related work).
func BenchmarkStride2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner(b, "BRO")
		if _, err := r.Stride(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLazyExperiment measures the lazy-DFA experiment path (hybrid
// execution mode, warm-cache comparison).
func BenchmarkLazyExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner(b, "BRO")
		if _, err := r.Lazy(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCCRefine measures the partial CC-merging study (the §VI-A
// proposed improvement).
func BenchmarkCCRefine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner(b, "PRO")
		if _, err := r.CCRefine(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClustering measures the similarity-clustered grouping study
// (§VIII future work).
func BenchmarkClustering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner(b, "BRO")
		if _, err := r.Clustering(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecompose measures the literal-prefilter decomposition study
// (Hyperscan-style related work [6]).
func BenchmarkDecompose(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner(b, "BRO")
		if _, err := r.Decompose(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
