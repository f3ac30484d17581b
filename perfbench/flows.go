package main

import (
	"fmt"
	"math/rand"
	"time"

	imfant "repro"
)

// flows feeds seeded chunks to open StreamMatchers of a Registry in random
// flow order, closes and reopens flows at a seeded rate, scrapes the obs
// surface every scrapeK chunks and hot-swaps a recompile of the same rules
// every swapM chunks, so every version matches identically and each flow is
// checked against one reference.
type flows struct {
	list     ruleList
	sessions []session
}

// session is one flow: its chunks, its whole byte stream, and the
// reference digest of that stream.
type session struct {
	chunks [][]byte
	whole  []byte
	want   digest
}

func (w *flows) prepare(r *run, rng *rand.Rand) error {
	pats, err := datasetPatterns("BRO", "TCP", "PEN")
	if err != nil {
		return err
	}
	if pats, err = withoutHighByteRepeats(pats); err != nil {
		return err
	}
	w.list = ruleList{name: "flows", patterns: pats, opts: imfant.Options{MergeFactor: 10, KeepOnMatch: true}}
	pl, err := newPlanter(pats)
	if err != nil {
		return err
	}
	w.sessions = make([]session, r.sz.sessions)
	wholes := make([][]byte, len(w.sessions))
	for i := range w.sessions {
		// Geometric flow length, mean 16 chunks.
		n := 1
		for n < 64 && rng.Intn(16) != 0 {
			n++
		}
		var s session
		for k := 0; k < n; k++ {
			c := pl.fill(rng, skewedSize(rng))
			if rng.Intn(4) == 0 {
				c = pl.plant(rng, c)
			}
			s.whole = append(s.whole, c...)
		}
		// Cut the stream at fresh sizes so planted samples can straddle
		// chunk boundaries.
		for rest := s.whole; len(rest) > 0; {
			k := min(len(rest), skewedSize(rng))
			s.chunks, rest = append(s.chunks, rest[:k]), rest[k:]
		}
		w.sessions[i] = s
		wholes[i] = s.whole
	}
	ref, err := newReference(pats, true)
	if err != nil {
		return err
	}
	for i, d := range ref.digests(wholes) {
		w.sessions[i].want = d
	}
	var ins [][]byte
	var want []digest
	for _, i := range sample(rng, len(wholes), r.sz.crossK) {
		ins, want = append(ins, wholes[i]), append(want, w.sessions[i].want)
	}
	return crossChecked(r, pats, true, ins, want)
}

func (w *flows) lists() []ruleList { return []ruleList{w.list} }

func (w *flows) open(latency bool) (instance, error) {
	opts := w.list.opts
	opts.Latency = latency
	reg, err := imfant.NewRegistry(w.list.patterns, opts)
	if err != nil {
		return nil, err
	}
	return &flowsInstance{w: w, opts: opts, reg: reg, seen: map[*imfant.Ruleset]bool{reg.Current(): true}}, nil
}

func (w *flows) probe(k int) ([][]byte, bool) {
	var out [][]byte
	for _, s := range w.sessions[:min(k, len(w.sessions))] {
		out = append(out, s.whole)
	}
	return out, true
}

// layers adds the stream, lazy-DFA and swap-interference metrics.
func (w *flows) layers(r *run, plain, traced instance, tu, tt *traffic) error {
	f := sumStats(traced.served())
	lookups := float64(f.lazy.Hits + f.lazy.Misses)
	r.set("lazydfa.hit_rate", "ratio", ratio(float64(f.lazy.Hits), lookups))
	r.set("lazydfa.misses_per_mb", "1/MB", ratio(float64(f.lazy.Misses), float64(f.bytes)/1e6))
	r.set("lazydfa.flushes", "count", float64(f.lazy.Flushes))
	r.set("lazydfa.fallbacks", "count", float64(f.lazy.Fallbacks))
	r.set("imfant.stream_write_p50_us", "us", median(micros(tt.lat)))
	if s := f.stages["stream_flush"]; s != nil {
		r.set("imfant.stream_flush_p50_us", "us", s.p50()/1e3)
	} else {
		return fmt.Errorf("flows: no stream_flush latency recorded")
	}
	r.set("imfant.close_p50_us", "us", median(micros(tt.closeLat)))
	during, idle := summarize(micros(tt.writeSwap)), summarize(micros(tt.writeIdle))
	r.samples["imfant.write_during_swap_us"], r.samples["imfant.write_idle_us"] = during, idle
	r.set("imfant.write_p99_during_swap_us", "us", during.P99)
	r.set("imfant.write_p99_idle_us", "us", idle.P99)
	return nil
}

type flowsInstance struct {
	w    *flows
	opts imfant.Options
	reg  *imfant.Registry
	seen map[*imfant.Ruleset]bool
	rng  *rand.Rand
	// slots are the open flows; nextSession cycles the session pool.
	slots       []*flowSlot
	nextSession int
	chunks      int
	scr         *scraper
	// update is the in-flight UpdateBackground, nil when none.
	update      <-chan error
	updateStart time.Time
	updateSpan  int32
}

type flowSlot struct {
	sm      *imfant.StreamMatcher
	session int
	next    int
	got     digest
	onMatch func(imfant.Match)
}

func (d *flowsInstance) init(r *run) {
	if d.slots != nil {
		return
	}
	d.rng = rand.New(rand.NewSource(r.seed ^ 0xF10F))
	d.scr = newScraper(d.reg)
	d.scr.live = true
	d.slots = make([]*flowSlot, r.sz.flows)
	for i := range d.slots {
		s := &flowSlot{}
		s.onMatch = func(m imfant.Match) { s.got.add(m.Rule, m.End) }
		d.slots[i] = s
	}
}

func (d *flowsInstance) open(s *flowSlot) {
	s.sm = d.reg.NewStreamMatcher(s.onMatch)
	s.session = d.nextSession
	d.nextSession = (d.nextSession + 1) % len(d.w.sessions)
	s.next, s.got = 0, digest{}
}

// closeSlot closes s's stream and checks its whole match set.
func (d *flowsInstance) closeSlot(r *run, t *traffic, s *flowSlot) {
	id := t.tr.begin("stream.close", t.parent)
	t0 := time.Now()
	err := s.sm.Close()
	el := time.Since(t0)
	t.tr.end(id)
	t.closeLat = append(t.closeLat, el)
	r.attempted++
	want := d.w.sessions[s.session].want
	if err != nil {
		r.fail("flows session %d close: %v", s.session, err)
	} else if s.got != want {
		r.fail("flows session %d: %d matches, reference %d", s.session, s.got.n, want.n)
	}
	s.sm = nil
}

func (d *flowsInstance) step(r *run, t *traffic) {
	d.init(r)
	d.pollUpdate(r, t)
	s := d.slots[d.rng.Intn(len(d.slots))]
	if s.sm == nil {
		d.open(s)
	}
	ses := &d.w.sessions[s.session]
	if s.next == len(ses.chunks) {
		d.closeSlot(r, t, s)
		return
	}
	c := ses.chunks[s.next]
	s.next++
	id := t.tr.begin("stream.write", t.parent)
	t0 := time.Now()
	n, err := s.sm.Write(c)
	el := time.Since(t0)
	t.tr.end(id)
	t.lat = append(t.lat, el)
	if d.update != nil {
		t.writeSwap = append(t.writeSwap, el)
	} else {
		t.writeIdle = append(t.writeIdle, el)
	}
	t.ops++
	t.bytes += int64(n)
	r.attempted++
	if err != nil {
		r.fail("flows session %d write: %v", s.session, err)
	}
	d.chunks++
	if d.chunks%r.sz.scrapeK == 0 {
		d.scr.scrape(r, t)
	}
	if d.chunks%r.sz.swapM == 0 && d.update == nil {
		r.attempted++
		d.updateSpan = t.tr.begin("registry.update_background", t.parent)
		d.update, d.updateStart = d.reg.UpdateBackground(d.w.list.patterns, d.opts), time.Now()
	}
}

// pollUpdate completes the in-flight update, if it has finished; wait
// blocks until it does.
func (d *flowsInstance) pollUpdate(r *run, t *traffic) { d.awaitUpdate(r, t, false) }

func (d *flowsInstance) awaitUpdate(r *run, t *traffic, wait bool) {
	if d.update == nil {
		return
	}
	var err error
	if wait {
		err = <-d.update
	} else {
		select {
		case err = <-d.update:
		default:
			return
		}
	}
	t.swap = append(t.swap, time.Since(d.updateStart))
	t.tr.end(d.updateSpan)
	d.update = nil
	if err != nil {
		r.fail("flows update: %v", err)
		return
	}
	d.seen[d.reg.Current()] = true
}

func (d *flowsInstance) warm(r *run) {
	d.init(r)
	t := newTraffic(nil, 0)
	for i := 0; i < 4*len(d.slots); i++ {
		d.step(r, t)
	}
	d.awaitUpdate(r, t, true)
}

func (d *flowsInstance) primary() []*imfant.Ruleset {
	best, most := d.reg.Current(), int64(-1)
	for rs := range d.seen {
		if b := rs.Stats().BytesScanned; b > most {
			best, most = rs, b
		}
	}
	return []*imfant.Ruleset{best}
}

func (d *flowsInstance) served() []*imfant.Ruleset {
	out := make([]*imfant.Ruleset, 0, len(d.seen))
	for rs := range d.seen {
		out = append(out, rs)
	}
	return out
}

func (d *flowsInstance) finish(r *run, t *traffic) {
	d.awaitUpdate(r, t, true)
	for _, s := range d.slots {
		if s.sm == nil {
			continue
		}
		// Feed the rest of the flow, untimed, so the whole session can be
		// checked against its reference.
		for _, c := range d.w.sessions[s.session].chunks[s.next:] {
			r.attempted++
			if _, err := s.sm.Write(c); err != nil {
				r.fail("flows session %d write: %v", s.session, err)
			}
		}
		d.closeSlot(r, t, s)
	}
}

func (d *flowsInstance) controlInTraffic() bool { return true }
