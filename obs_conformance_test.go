package imfant

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// obsTestPatterns mix every strategy class so each stage timer fires:
// literals (AC), anchors (anchored), small regexes (DFA), and an
// engine-bound rule that stays on the default engine.
var obsTestPatterns = []string{
	"/etc/passwd", "cmd\\.exe", "<script>",
	"^GET /", "/done$",
	"id=[0-9]+ or ", "%2e%2e[/\\\\]",
	"x[0-9]{200}y",
}

// obsTraffic salts HTTP-ish filler with pattern fragments.
func obsTraffic(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	frags := []string{
		"Host: example.com\r\n", "User-Agent: Mozilla\r\n",
		"GET /index.html HTTP/1.1\r\n", "/etc/passwd", "cmd.exe",
		"<script>alert(1)</script>", "id=7 or 1=1 ", "%2e%2e/etc",
	}
	var out []byte
	for len(out) < n {
		out = append(out, frags[rng.Intn(len(frags))]...)
	}
	return out[:n]
}

// TestLatencyStageCoverage pins which stages fire on each path: prefilter
// and per-strategy dispatch on block scans, parallel and strategy stages on
// CountParallel, stream write/flush on streams.
func TestLatencyStageCoverage(t *testing.T) {
	rs := MustCompile(obsTestPatterns, Options{
		MergeFactor: 3, Prefilter: PrefilterOn, Latency: true,
	})
	input := obsTraffic(32<<10, 47)
	rs.FindAll(input)
	if _, err := rs.CountParallel(input, 2); err != nil {
		t.Fatal(err)
	}
	sm := rs.NewStreamMatcher(nil)
	if _, err := sm.Write(input[:8<<10]); err != nil {
		t.Fatal(err)
	}
	if err := sm.Close(); err != nil {
		t.Fatal(err)
	}

	lat := rs.Stats().Latency
	if lat == nil {
		t.Fatal("no latency section")
	}
	got := map[string]int64{}
	for _, st := range lat.Stages {
		got[st.Stage] = st.Count
	}
	for _, stage := range []string{"scan", "parallel", "stream_write", "stream_flush"} {
		if got[stage] == 0 {
			t.Errorf("stage %q never recorded; got %v", stage, got)
		}
	}
	// The mixed ruleset has AC, anchored, DFA and default groups — at
	// least one per-strategy dispatch stage must have fired.
	var strategyObs int64
	for stage, n := range got {
		if len(stage) > 9 && stage[:9] == "strategy_" {
			strategyObs += n
		}
	}
	if strategyObs == 0 {
		t.Errorf("no per-strategy dispatch stage recorded; got %v", got)
	}
}

// TestConcurrentSetTraceSinkPublic flips the public trace sink while scans
// run: race-clean under -race, no event delivered to any sink twice, and
// events that arrive carry monotonically growing sequence numbers per
// goroutine's observation window.
func TestConcurrentSetTraceSinkPublic(t *testing.T) {
	rs := MustCompile([]string{"abc", "xy+z"}, Options{TraceCapacity: 256})
	input := obsTraffic(4<<10, 53)

	var delivered sync.Map // seq -> *int64 delivery count
	count := func(ev TraceEvent) {
		v, _ := delivered.LoadOrStore(ev.Seq, new(int64))
		atomic.AddInt64(v.(*int64), 1)
	}

	var scanners, flipper sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		scanners.Add(1)
		go func() {
			defer scanners.Done()
			for i := 0; i < 200; i++ {
				rs.FindAll(input)
			}
		}()
	}
	flipper.Add(1)
	go func() {
		defer flipper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%3 == 2 {
				rs.SetTraceSink(nil)
			} else {
				rs.SetTraceSink(count)
			}
		}
	}()
	scanners.Wait()
	close(stop)
	flipper.Wait()
	rs.SetTraceSink(nil)

	dups := 0
	delivered.Range(func(_, v any) bool {
		if atomic.LoadInt64(v.(*int64)) != 1 {
			dups++
		}
		return true
	})
	if dups != 0 {
		t.Fatalf("%d events delivered to a sink more than once", dups)
	}
}
