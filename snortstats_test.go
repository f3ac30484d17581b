package imfant

import (
	"math/rand"
	"testing"
)

// TestSnortRulesetCacheTelemetry measures the lazy-DFA cache behaviour on
// the snort-derived web-attacks ruleset through the public telemetry API —
// the numbers recorded in EXPERIMENTS.md — and pins the qualitative
// properties: the warm cache fits the default cap, never flushes or falls
// back on HTTP-like traffic, and serves essentially every byte.
func TestSnortRulesetCacheTelemetry(t *testing.T) {
	patterns := snortPatterns(t)
	rs, ruleErrs, err := CompileLax(patterns, Options{Engine: EngineLazyDFA, KeepOnMatch: true})
	if err != nil {
		t.Fatal(err)
	}
	if rs.NumRules()-len(ruleErrs) < 10 {
		t.Fatalf("too few compilable snort rules: %d", rs.NumRules()-len(ruleErrs))
	}

	// HTTP-ish traffic salted with attack fragments.
	rng := rand.New(rand.NewSource(42))
	frags := []string{
		"GET /index.html HTTP/1.0\r\n", "Host: example.com\r\n",
		"User-Agent: Mozilla/5.0\r\n", "Accept: */*\r\n",
		"/etc/passwd", "cmd.exe", "<script>", "../..", "id=1 or 1=1",
	}
	var traffic []byte
	for len(traffic) < 256<<10 {
		if rng.Intn(4) == 0 {
			traffic = append(traffic, frags[4+rng.Intn(len(frags)-4)]...)
		} else {
			traffic = append(traffic, frags[rng.Intn(4)]...)
		}
	}

	sc := rs.NewScanner()
	sc.Count(traffic) // cold scan builds the cache
	cold := sc.Stats()
	for i := 0; i < 4; i++ {
		sc.Count(traffic)
	}
	st := sc.Stats()
	l := st.Lazy
	if l == nil {
		t.Fatal("no lazy section")
	}

	warmHits := l.Hits - cold.Lazy.Hits
	warmMisses := l.Misses - cold.Lazy.Misses
	warmRate := float64(warmHits) / float64(warmHits+warmMisses)
	t.Logf("snort web-attacks: %d rules, %d automaton(s), %d byte classes",
		rs.NumRules()-len(ruleErrs), rs.NumAutomata(), l.ByteClasses)
	t.Logf("cold scan: %.4f%% hit rate (%d misses over %d bytes), %d cached states (cap %d)",
		100*cold.Lazy.HitRate(), cold.Lazy.Misses, cold.BytesScanned, cold.Lazy.CachedStates, l.MaxStates)
	t.Logf("warm scans: %.4f%% hit rate, %d flushes, %d fallbacks", 100*warmRate, l.Flushes, l.Fallbacks)

	if l.Flushes != 0 || l.Fallbacks != 0 {
		t.Fatalf("default cache flushed (%d) or fell back (%d) on HTTP traffic", l.Flushes, l.Fallbacks)
	}
	if cold.Lazy.HitRate() < 0.95 {
		t.Fatalf("cold hit rate %.4f, want > 0.95", cold.Lazy.HitRate())
	}
	if warmRate < 0.9999 {
		t.Fatalf("warm hit rate %.6f, want ~1", warmRate)
	}
	if int(l.CachedStates) > l.MaxStates {
		t.Fatalf("cache overran cap: %d > %d", l.CachedStates, l.MaxStates)
	}
}
