package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	imfant "repro"
	"repro/internal/dataset"
)

// newWorkload returns the named workload, or nil.
func newWorkload(name string) workload {
	switch name {
	case "packets":
		return &packets{}
	case "bulk":
		return &bulk{}
	case "flows":
		return &flows{}
	}
	return nil
}

var workloadNames = []string{"packets", "bulk", "flows"}

// ---- packets: DPI block scanning ----

// packets scans a cycled pool of seeded payloads, one FindAllContext call
// per payload on one reused Scanner.
type packets struct {
	list     ruleList
	payloads [][]byte
	want     []digest
}

func (w *packets) prepare(r *run, rng *rand.Rand) error {
	bt, err := datasetPatterns("BRO", "TCP")
	if err != nil {
		return err
	}
	if bt, err = withoutHighByteRepeats(bt); err != nil {
		return err
	}
	web, err := snortPatterns()
	if err != nil {
		return err
	}
	pats := append(append(append([]string{}, packetsExtraRules...), bt...), web...)
	w.list = ruleList{name: "packets", patterns: pats, opts: imfant.Options{MergeFactor: 10}}
	pl, err := newPlanter(pats)
	if err != nil {
		return err
	}
	w.payloads = make([][]byte, r.sz.payloads)
	for i := range w.payloads {
		b := pl.fill(rng, skewedSize(rng))
		if rng.Intn(4) == 0 {
			b = pl.plant(rng, b)
		}
		w.payloads[i] = b
	}
	ref, err := newReference(pats, false)
	if err != nil {
		return err
	}
	w.want = ref.digests(w.payloads)
	var ins [][]byte
	var want []digest
	for _, i := range sample(rng, len(w.payloads), r.sz.crossK) {
		ins, want = append(ins, w.payloads[i]), append(want, w.want[i])
	}
	return crossChecked(r, pats, false, ins, want)
}

// crossChecked runs crossCheck and counts each sampled input as one
// operation, failed on disagreement.
func crossChecked(r *run, pats []string, keep bool, ins [][]byte, want []digest) error {
	bad, err := crossCheck(pats, keep, ins, want)
	if err != nil {
		return err
	}
	r.attempted += int64(len(ins))
	for _, b := range bad {
		r.fail("%s", b)
	}
	return nil
}

func (w *packets) lists() []ruleList { return []ruleList{w.list} }

func (w *packets) open(latency bool) (instance, error) {
	opts := w.list.opts
	opts.Latency = latency
	rs, err := imfant.Compile(w.list.patterns, opts)
	if err != nil {
		return nil, err
	}
	return &packetsInstance{w: w, rs: rs, sc: rs.NewScanner(), ctx: context.Background()}, nil
}

func (w *packets) probe(k int) ([][]byte, bool) { return w.payloads[:min(len(w.payloads), k)], false }

func (w *packets) layers(*run, instance, instance, *traffic, *traffic) error { return nil }

type packetsInstance struct {
	w    *packets
	rs   *imfant.Ruleset
	sc   *imfant.Scanner
	ctx  context.Context
	next int
}

func (d *packetsInstance) step(r *run, t *traffic) {
	i := d.next
	d.next = (d.next + 1) % len(d.w.payloads)
	p := d.w.payloads[i]
	id := t.tr.begin("scanner.find_all", t.parent)
	t0 := time.Now()
	ms, err := d.sc.FindAllContext(d.ctx, p)
	el := time.Since(t0)
	t.tr.end(id)
	t.lat = append(t.lat, el)
	t.ops++
	t.bytes += int64(len(p))
	r.attempted++
	if err != nil {
		r.fail("packets payload %d: %v", i, err)
	} else if got := digestOf(ms); got != d.w.want[i] {
		r.fail("packets payload %d: %d matches, reference %d", i, got.n, d.w.want[i].n)
	}
}

func (d *packetsInstance) warm(r *run) {
	for _, p := range d.w.payloads[:min(len(d.w.payloads), 256)] {
		_ = d.sc.Count(p) // warm-up only; results are checked in the timed loop
	}
}

func (d *packetsInstance) primary() []*imfant.Ruleset { return []*imfant.Ruleset{d.rs} }
func (d *packetsInstance) served() []*imfant.Ruleset  { return d.primary() }
func (d *packetsInstance) finish(*run, *traffic)      {}
func (d *packetsInstance) controlInTraffic() bool     { return false }

// ---- bulk: whole-buffer counting (Figs. 9–10) ----

var bulkDatasets = []string{"DS9", "PRO", "RG1"}

// bulk counts one large buffer per dataset with CountParallel at nproc
// threads, so segment parallelism and the iMFAnt step loop carry the work.
type bulk struct {
	ls      []ruleList
	bufs    [][]byte
	want    []int64
	windows [][]byte // probe inputs, one per dataset
}

func (w *bulk) prepare(r *run, rng *rand.Rand) error {
	for _, ds := range bulkDatasets {
		spec, err := dataset.ByAbbr(ds)
		if err != nil {
			return err
		}
		pats := spec.Patterns()
		w.ls = append(w.ls, ruleList{name: ds, patterns: pats, opts: imfant.Options{MergeFactor: 10}})
		// The seed picks a window of a stream twice the buffer size.
		stream := spec.Stream(2*r.sz.bulkBytes, 0)
		off := rng.Intn(r.sz.bulkBytes + 1)
		buf := stream[off : off+r.sz.bulkBytes]
		w.bufs = append(w.bufs, buf)
		w.windows = append(w.windows, buf[:min(len(buf), 64<<10)])
		ref, err := newReference(pats, false)
		if err != nil {
			return err
		}
		w.want = append(w.want, ref.count(buf))
		var ins [][]byte
		for k := 0; k < r.sz.crossK; k++ {
			o := rng.Intn(len(buf) - 2048)
			ins = append(ins, buf[o:o+2048])
		}
		if err := crossChecked(r, pats, false, ins, ref.digests(ins)); err != nil {
			return err
		}
	}
	return nil
}

func (w *bulk) lists() []ruleList { return w.ls }

func (w *bulk) open(latency bool) (instance, error) {
	d := &bulkInstance{w: w, threads: runtime.NumCPU()}
	for _, l := range w.ls {
		opts := l.opts
		opts.Latency = latency
		rs, err := imfant.Compile(l.patterns, opts)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", l.name, err)
		}
		d.rss = append(d.rss, rs)
	}
	return d, nil
}

func (w *bulk) probe(int) ([][]byte, bool) { return w.windows, false }

// layers measures segment parallelism per dataset: the serial Scanner.Count
// time over the CountParallel median, and the stitch and fallback counters
// of the traced rulesets.
func (w *bulk) layers(r *run, plain, traced instance, tu, tt *traffic) error {
	for i, l := range w.ls {
		rs := plain.primary()[i]
		id := r.tr.begin("segment.serial_count."+l.name, 0)
		t0 := time.Now()
		n := rs.NewScanner().Count(w.bufs[i])
		serial := time.Since(t0)
		r.tr.end(id)
		r.attempted++
		if n != w.want[i] {
			r.fail("bulk %s serial count %d, reference %d", l.name, n, w.want[i])
		}
		par := median(msOf(tu.perList[l.name]))
		r.set("segment.speedup."+l.name, "x", ratio(ms(serial), par))
		seg := sumStats(traced.primary()[i : i+1]).segment
		r.set("segment.stitch_ratio."+l.name, "ratio", ratio(float64(seg.StitchBytes), float64(seg.ParallelBytes)))
		r.set("segment.fallbacks."+l.name, "count", float64(seg.Fallbacks))
	}
	return nil
}

type bulkInstance struct {
	w       *bulk
	rss     []*imfant.Ruleset
	threads int
}

func (d *bulkInstance) step(r *run, t *traffic) {
	for i, rs := range d.rss {
		name := d.w.ls[i].name
		buf := d.w.bufs[i]
		id := t.tr.begin("ruleset.count_parallel."+name, t.parent)
		t0 := time.Now()
		n, err := rs.CountParallel(buf, d.threads)
		el := time.Since(t0)
		t.tr.end(id)
		t.lat = append(t.lat, el)
		t.perList[name] = append(t.perList[name], el)
		t.ops++
		t.bytes += int64(len(buf))
		r.attempted++
		if err != nil {
			r.fail("bulk %s: %v", name, err)
		} else if n != d.w.want[i] {
			r.fail("bulk %s: %d matches, reference %d", name, n, d.w.want[i])
		}
	}
}

func (d *bulkInstance) warm(r *run) {
	for i, rs := range d.rss {
		if _, err := rs.CountParallel(d.w.windows[i], d.threads); err != nil {
			r.fail("bulk warm-up %s: %v", d.w.ls[i].name, err)
		}
	}
}

func (d *bulkInstance) primary() []*imfant.Ruleset { return d.rss }
func (d *bulkInstance) served() []*imfant.Ruleset  { return d.rss }
func (d *bulkInstance) finish(*run, *traffic)      {}
func (d *bulkInstance) controlInTraffic() bool     { return false }
