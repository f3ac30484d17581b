package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	imfant "repro"
	"repro/obs"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sizes scales a run: the full benchmark and the smoke mode share every
// code path and differ only here.
type sizes struct {
	payloads  int // packets: distinct payloads in the cycled pool
	bulkBytes int // bulk: bytes per dataset buffer
	sessions  int // flows: distinct flow sessions in the cycled pool
	flows     int // flows: streams open at once
	setupReps int // set-ups timed for setup_s
	swaps     int // packets, bulk: UpdateBackground rounds after traffic
	scrapes   int // /metrics + /statusz scrapes per ruleset after traffic
	scrapeK   int // flows: scrape every scrapeK chunks
	swapM     int // flows: start an update every swapM chunks
	crossK    int // inputs cross-checked against engine.ReferenceScan
	probeK    int // inputs fed to the engine and reporting probes
}

var fullSizes = sizes{
	payloads: 1024, bulkBytes: 1 << 20, sessions: 128, flows: 64,
	setupReps: 5, swaps: 5, scrapes: 200, scrapeK: 500, swapM: 5000,
	crossK: 6, probeK: 192,
}

var smokeSizes = sizes{
	payloads: 48, bulkBytes: 48 << 10, sessions: 12, flows: 8,
	setupReps: 1, swaps: 1, scrapes: 2, scrapeK: 50, swapM: 200,
	crossK: 2, probeK: 8,
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	sz       sizes
	tr       *tracer

	metrics   map[string]metric
	samples   map[string]summary
	attempted int64
	failed    int64
	failures  []string
}

func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *run) sample(name string, xs []float64) { r.samples[name] = summarize(xs) }

// fail counts a failed operation and keeps the first few reasons.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// ruleList is one ruleset a workload compiles.
type ruleList struct {
	name     string
	patterns []string
	opts     imfant.Options
}

// workload is one of the benchmark's traffic mixes.
type workload interface {
	// prepare generates the seeded inputs and their reference results,
	// outside every timed region.
	prepare(r *run, rng *rand.Rand) error
	// lists returns the rule lists the workload compiles.
	lists() []ruleList
	// open compiles the workload's rulesets — the calls setup_s times —
	// with Options.Latency set as given.
	open(latency bool) (instance, error)
	// probe returns up to k inputs for the engine and reporting probes,
	// and whether matching keeps going after a match (KeepOnMatch).
	probe(k int) (inputs [][]byte, keepOnMatch bool)
	// layers adds the workload's own per-layer metrics after a traced run.
	layers(r *run, plain, traced instance, tu, tt *traffic) error
}

// instance is one compiled copy of a workload, which runs its traffic.
type instance interface {
	// step runs one closed-loop operation (bulk: one buffer per dataset).
	step(r *run, t *traffic)
	// warm runs untimed operations so lazy set-up finishes before timing.
	warm(r *run)
	// primary returns one ruleset per rule list. A Registry's versions all
	// compile the same rules, so its primary is the version that served
	// the most bytes, whose statistics a scrape renders in full.
	primary() []*imfant.Ruleset
	// served returns every ruleset version that has served traffic.
	served() []*imfant.Ruleset
	// finish ends the traffic: open streams are closed and checked.
	finish(r *run, t *traffic)
	// controlInTraffic reports whether swaps and scrapes run inside the
	// traffic loop; otherwise they run after it.
	controlInTraffic() bool
}

// traffic accumulates one instance's timed operations.
type traffic struct {
	tr     *tracer
	parent int32

	bytes int64
	ops   int64
	wall  time.Duration
	lat   []time.Duration // per operation
	// windows is the throughput of each whole window, in MB/s.
	windows []float64

	mallocs, allocBytes uint64

	swap, metricsT, statusz, snapshot []time.Duration
	metricsBytes                      []float64
	liveMetrics                       []time.Duration
	// writes split by whether an update was in flight (flows).
	writeSwap, writeIdle, closeLat []time.Duration
	// perList is each rule list's call latency (bulk).
	perList map[string][]time.Duration
}

func newTraffic(tr *tracer, parent int32) *traffic {
	return &traffic{tr: tr, parent: parent, lat: make([]time.Duration, 0, 1<<16), perList: map[string][]time.Duration{}}
}

// window is the span over which one throughput sample is taken. Reporting
// the median window keeps a burst of interference from other tenants of
// the host out of the figure; on bulk every operation outlasts a window,
// so each window is one round of buffers.
const window = time.Second

// drive runs d's closed loop for dur and folds the allocations into t.
func drive(r *run, d instance, t *traffic, dur time.Duration) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	wStart, wBytes := start, t.bytes
	for time.Since(start) < dur {
		d.step(r, t)
		if now := time.Now(); now.Sub(wStart) >= window {
			t.windows = append(t.windows, float64(t.bytes-wBytes)/1e6/now.Sub(wStart).Seconds())
			wStart, wBytes = now, t.bytes
		}
	}
	t.wall += time.Since(start)
	runtime.ReadMemStats(&m1)
	t.mallocs += m1.Mallocs - m0.Mallocs
	t.allocBytes += m1.TotalAlloc - m0.TotalAlloc
}

// scraper serves the obs admin surface in-process, without sockets.
type scraper struct {
	h                http.Handler
	reg              *imfant.Registry
	metrics, statusz *http.Request
	// live scrapes run inside the traffic, beside background compiles;
	// their /metrics times are kept apart in traffic.liveMetrics.
	live bool
}

func newScraper(reg *imfant.Registry) *scraper {
	return &scraper{
		h: obs.Handler(reg), reg: reg,
		metrics: httptest.NewRequest(http.MethodGet, "/metrics", nil),
		statusz: httptest.NewRequest(http.MethodGet, "/statusz", nil),
	}
}

// scrape serves /metrics and /statusz once each and takes one Stats()
// snapshot, timing all three into t.
func (s *scraper) scrape(r *run, t *traffic) {
	r.attempted += 2
	id := t.tr.begin("obs.scrape", t.parent)
	for _, req := range []*http.Request{s.metrics, s.statusz} {
		rec := httptest.NewRecorder()
		t0 := time.Now()
		s.h.ServeHTTP(rec, req)
		d := time.Since(t0)
		t.tr.record("obs.serve"+req.URL.Path, id, t0, d)
		if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
			r.fail("scrape %s: status %d, %d bytes", req.URL.Path, rec.Code, rec.Body.Len())
			continue
		}
		switch {
		case s.live:
			if req == s.metrics {
				t.liveMetrics = append(t.liveMetrics, d)
			}
		case req == s.metrics:
			t.metricsT = append(t.metricsT, d)
			t.metricsBytes = append(t.metricsBytes, float64(rec.Body.Len()))
		default:
			t.statusz = append(t.statusz, d)
		}
	}
	t0 := time.Now()
	_ = s.reg.Current().Stats() // timed for telemetry.snapshot_us; the value is not needed
	if !s.live {
		t.snapshot = append(t.snapshot, time.Since(t0))
	}
	t.tr.end(id)
}

// control runs the operator's side after the traffic: each ruleset is
// wrapped in a Registry and scraped with no compile running beside it,
// then, when swaps is set, every ruleset is hot-swapped to a recompile of
// the same rules. One swap sample is a round over all of the workload's
// rulesets, as setup_s times the compile of all of them.
func control(r *run, lists []ruleList, rss []*imfant.Ruleset, t *traffic, swaps bool) {
	id := t.tr.begin("control", 0)
	regs := make([]*imfant.Registry, len(lists))
	warm := &traffic{} // warm-up scrapes, not timed into t
	for i := range lists {
		regs[i] = imfant.NewRegistryFrom(rss[i])
		s := newScraper(regs[i])
		for k := 0; k < 5; k++ {
			s.scrape(r, warm)
		}
		for k := 0; k < r.sz.scrapes; k++ {
			s.scrape(r, t)
		}
	}
	for k := 0; swaps && k < r.sz.swaps; k++ {
		var round time.Duration
		for i, l := range lists {
			r.attempted++
			sid := t.tr.begin("registry.update_background", id)
			t0 := time.Now()
			err := <-regs[i].UpdateBackground(l.patterns, l.opts)
			round += time.Since(t0)
			t.tr.end(sid)
			if err != nil {
				r.fail("update %s: %v", l.name, err)
			}
		}
		t.swap = append(t.swap, round)
	}
	t.tr.end(id)
}

// endToEnd derives the end-to-end metrics from one traffic record.
func endToEnd(r *run, t *traffic) {
	if len(t.windows) == 0 { // a run shorter than one window
		t.windows = []float64{float64(t.bytes) / 1e6 / t.wall.Seconds()}
	}
	r.sample("throughput_mbps", t.windows)
	r.set("throughput_mbps", "MB/s", median(t.windows))
	lat := summarize(micros(t.lat))
	r.samples["latency_us"] = lat
	r.set("latency_p50_us", "us", lat.Median)
	r.set("latency_p99_us", "us", lat.P99)
	r.sample("swap_ms", msOf(t.swap))
	r.sample("scrape_ms", msOf(t.metricsT))
	r.set("swap_ms", "ms", median(msOf(t.swap)))
	r.set("scrape_ms", "ms", median(msOf(t.metricsT)))
	if len(t.liveMetrics) > 0 {
		r.sample("obs.live_metrics_ms", msOf(t.liveMetrics))
	}
	ops := float64(t.ops)
	r.set("imfant.allocs_per_op", "count", ratio(float64(t.mallocs), ops))
	r.set("imfant.bytes_per_op", "B", ratio(float64(t.allocBytes), ops))
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
