// Command perfbench is the repository benchmark. It drives three workloads
// through the public API — packets (DPI block scanning), bulk (whole-buffer
// parallel counting, the paper's Figs. 9–10) and flows (stream reassembly
// with hot swap and scraping) — checks every operation against a reference
// configuration, and prints the metrics BENCHMARK.json names. Run it from
// the repository root:
//
//	bash perfbench/run.sh --workload packets --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --smoke
//	bash perfbench/run.sh --compare base.jsonl new.jsonl
//
// With --trace 0 the last line of output carries the end-to-end metrics;
// with --trace 1 the run repeats the traffic with Options.Latency on,
// records spans around every call it makes, and the last line carries the
// per-layer metrics. Every run appends its full record — spread, allocations
// and host — to .bench_build/results/<workload>.jsonl; a traced run also
// writes its spans there.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

const resultsDir = ".bench_build/results"

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	workloadName := flag.String("workload", "", "workload to run: packets, bulk or flows")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "seconds of timed traffic")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	smoke := flag.Bool("smoke", false, "run every workload at tiny sizes and check every metric is emitted")
	compare := flag.Bool("compare", false, "compare two result files given as arguments")
	flag.Parse()

	c, err := readContract("BENCHMARK.json")
	if err != nil {
		return err
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			return errors.New("--compare takes two result files")
		}
		return compareFiles(os.Stdout, c, flag.Arg(0), flag.Arg(1))
	case *smoke:
		return runSmoke(c)
	}
	w := newWorkload(*workloadName)
	if w == nil {
		return fmt.Errorf("unknown workload %q (want packets, bulk or flows)", *workloadName)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	r := newRun(*workloadName, *seed, time.Duration(*seconds)*time.Second, *trace == 1, fullSizes)
	if err := execute(r, w); err != nil {
		return err
	}
	names := c.EndToEnd
	if r.traced {
		names = c.PerLayer
	}
	line, err := resultLine(r, names)
	if err != nil {
		return err
	}
	printTable(r)
	if err := saveRecord(r); err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

func newRun(workload string, seed int64, d time.Duration, traced bool, sz sizes) *run {
	r := &run{workload: workload, seed: seed, seconds: d, traced: traced, sz: sz,
		metrics: map[string]metric{}, samples: map[string]summary{}}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// execute prepares the inputs, times the set-up, and runs the traffic:
// plain, or when r.traced half plain and half traced, then the probes.
func execute(r *run, w workload) error {
	if err := w.prepare(r, rand.New(rand.NewSource(r.seed))); err != nil {
		return fmt.Errorf("%s: prepare: %w", r.workload, err)
	}
	d, err := setup(r, w)
	if err != nil {
		return err
	}
	d.warm(r)
	if !r.traced {
		t := newTraffic(nil, 0)
		drive(r, d, t, r.seconds)
		d.finish(r, t)
		control(r, w.lists(), d.primary(), t, !d.controlInTraffic())
		endToEnd(r, t)
		return nil
	}

	sid := r.tr.begin("setup.traced", 0)
	dt, err := w.open(true)
	r.tr.end(sid)
	if err != nil {
		return fmt.Errorf("%s: traced set-up: %w", r.workload, err)
	}
	dt.warm(r)
	tu := newTraffic(nil, 0)
	tt := newTraffic(r.tr, 0)
	drive(r, d, tu, r.seconds/2)
	tt.parent = r.tr.begin("traffic.traced", 0)
	drive(r, dt, tt, r.seconds/2)
	r.tr.end(tt.parent)
	r.tr.mark(tt.parent, dt.served())
	d.finish(r, tu)
	dt.finish(r, tt)
	tt.parent = 0
	control(r, w.lists(), dt.primary(), tt, !dt.controlInTraffic())
	endToEnd(r, tu)
	r.set("trace.overhead_ratio", "ratio", ratio(float64(tt.bytes)/tt.wall.Seconds(), float64(tu.bytes)/tu.wall.Seconds()))
	scanLayers(r, dt.served(), tt)

	progs, err := compileLayers(r, w.lists())
	if err != nil {
		return err
	}
	inputs, keep := w.probe(r.sz.probeK)
	if err := engineProbe(r, progs, d.primary(), inputs, keep); err != nil {
		return err
	}
	reportProbe(r, d.primary(), inputs)
	registryCycles(r, w.lists(), d.primary())
	if err := w.layers(r, d, dt, tu, tt); err != nil {
		return err
	}
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return err
	}
	return r.tr.write(filepath.Join(resultsDir, fmt.Sprintf("spans-%s-%d.json", r.workload, r.seed)))
}

// setup compiles the workload setupReps times, timing each for setup_s and
// measuring the heap it retains, and returns the last instance.
func setup(r *run, w workload) (instance, error) {
	var secs, mb, other, allocs []float64
	var d instance
	for i := 0; i < r.sz.setupReps; i++ {
		d = nil
		var m0, m1, m2 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		id := r.tr.begin("setup", 0)
		t0 := time.Now()
		nd, err := w.open(false)
		el := time.Since(t0)
		r.tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", r.workload, err)
		}
		runtime.ReadMemStats(&m1)
		runtime.GC()
		runtime.ReadMemStats(&m2)
		d = nd
		var stages time.Duration
		for _, rs := range d.primary() {
			stages += rs.CompileTimes().Total()
		}
		secs = append(secs, el.Seconds())
		mb = append(mb, float64(int64(m2.HeapAlloc)-int64(m0.HeapAlloc))/1e6)
		other = append(other, ms(el-stages))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/1e3)
	}
	r.sample("setup_s", secs)
	r.set("setup_s", "s", median(secs))
	r.set("ruleset_mb", "MB", median(mb))
	r.set("imfant.compile_other_ms", "ms", median(other))
	r.set("imfant.compile_allocs_k", "k", median(allocs))
	var states, trans, groups int
	for _, rs := range d.primary() {
		states += rs.States()
		trans += rs.Transitions()
		groups += rs.NumAutomata()
	}
	r.set("mfsa.states", "count", float64(states))
	r.set("mfsa.transitions", "count", float64(trans))
	r.set("mfsa.groups", "count", float64(groups))
	return d, nil
}

// contractMetric is one metric of BENCHMARK.json.
type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

func readContract(path string) (*contract, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read contract: %w", err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &c, nil
}

// resultLine renders the one-line result: exactly the named metrics.
func resultLine(r *run, names []contractMetric) (string, error) {
	out := map[string]metric{}
	for _, m := range names {
		v, ok := r.metrics[m.Name]
		if !ok {
			return "", fmt.Errorf("%s: metric %s was not measured", r.workload, m.Name)
		}
		if v.Unit != m.Unit {
			return "", fmt.Errorf("%s: metric %s measured in %s, contract says %s", r.workload, m.Name, v.Unit, m.Unit)
		}
		out[m.Name] = v
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	return string(b), err
}

// record is the full account of one run, appended to the results file.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Host      host               `json:"host"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]metric  `json:"metrics"`
	Samples   map[string]summary `json:"samples"`
}

type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func (r *run) record() record {
	return record{
		Workload: r.workload, Seed: r.seed, Seconds: r.seconds.Seconds(), Traced: r.traced,
		Host:      host{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH},
		Attempted: r.attempted, Failed: r.failed, Failures: r.failures,
		Metrics: r.metrics, Samples: r.samples,
	}
}

func saveRecord(r *run) error {
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.record())
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(resultsDir, r.workload+".jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTable prints every measured metric and sample spread.
func printTable(r *run) {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Printf("# %s seed=%d %s nproc=%d GOMAXPROCS=%d %s attempted=%d failed=%d\n",
		r.workload, r.seed, mode, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Println("# FAILED:", f)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	names = names[:0]
	for n := range r.samples {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := r.samples[n]
		fmt.Printf("%-36s n=%d min=%.6g median=%.6g max=%.6g\n", "spread "+n, s.N, s.Min, s.Median, s.Max)
	}
}
