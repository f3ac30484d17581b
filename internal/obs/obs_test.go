package obs

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// fullStats synthesizes a snapshot with every section populated.
func fullStats() (telemetry.Stats, *telemetry.Latency) {
	c := telemetry.NewCollector(3)
	c.AddScans(10)
	c.AddBytes(4096)
	c.AddMatch(0)
	c.AddMatch(2)
	c.AddMatch(2)
	c.EnableLazy(2, 2, 512, 17)
	c.AddLazyScan(100, 7, 1, 0)
	c.EnablePrefilter(2, 2)
	c.AddPrefilterScan(3, 5, 2, 2048)
	c.EnableAccel(2)
	c.AddAccelScan(333)
	c.EnableStrategy(true, []string{"imfant", "lazydfa", "ac"}, []int{1, 2, 0})
	c.AddStrategyBytes(0, 100)
	c.AddStrategyBytes(1, 200)
	c.EnableSegment()
	c.AddSegmentScans(2, 4, 1024)
	c.AddTimeouts(1)
	c.AddShed(2)
	lat := c.EnableLatency()
	lat.Record(telemetry.StageScan, 1500)
	lat.Record(telemetry.StageScan, 90000)
	lat.Record(telemetry.StagePrefilter, 400)
	return c.Snapshot(), lat
}

func TestWriteParsesAsOpenMetrics(t *testing.T) {
	s, lat := fullStats()
	var b strings.Builder
	if err := Write(&b, StatsFamilies(s, lat)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	out := b.String()
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("output does not end with # EOF:\n%s", out)
	}
	fams, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatalf("Parse rejected encoder output: %v\n%s", err, out)
	}
	for _, want := range []string{
		"imfant_scans", "imfant_bytes_scanned", "imfant_matches",
		"imfant_rule_hits", "imfant_lazy_hits", "imfant_lazy_cached_states", "imfant_lazy_cache_bytes",
		"imfant_prefilter_sweeps", "imfant_prefilter_bytes_saved",
		"imfant_accel_bytes_skipped", "imfant_strategy_groups",
		"imfant_strategy_bytes", "imfant_degraded",
		"imfant_stage_latency_seconds",
	} {
		if _, ok := fams[want]; !ok {
			t.Errorf("family %s missing from exposition", want)
		}
	}
	if f := fams["imfant_scans"]; f.Kind != "counter" || f.Samples[0].Name != "imfant_scans_total" {
		t.Errorf("imfant_scans: got kind=%s sample=%s", f.Kind, f.Samples[0].Name)
	}
	if f := fams["imfant_scans"]; f.Samples[0].Value != 10 {
		t.Errorf("imfant_scans_total = %v, want 10", f.Samples[0].Value)
	}
}

func TestRuleHitsSkipsZeroRows(t *testing.T) {
	s, lat := fullStats()
	var b strings.Builder
	if err := Write(&b, StatsFamilies(s, lat)); err != nil {
		t.Fatal(err)
	}
	fams, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	f := fams["imfant_rule_hits"]
	if f == nil {
		t.Fatal("imfant_rule_hits missing")
	}
	// Rules 0 and 2 hit; rule 1 (zero) must be omitted.
	if len(f.Samples) != 2 {
		t.Fatalf("rule_hits samples = %d, want 2", len(f.Samples))
	}
	got := map[string]float64{}
	for _, smp := range f.Samples {
		got[smp.Labels["rule"]] = smp.Value
	}
	if got["0"] != 1 || got["2"] != 2 {
		t.Errorf("rule_hits = %v, want rule 0→1, rule 2→2", got)
	}
}

func TestDegradedReasons(t *testing.T) {
	s, lat := fullStats()
	var b strings.Builder
	if err := Write(&b, StatsFamilies(s, lat)); err != nil {
		t.Fatal(err)
	}
	fams, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	f := fams["imfant_degraded"]
	got := map[string]float64{}
	for _, smp := range f.Samples {
		got[smp.Labels["reason"]] = smp.Value
	}
	want := map[string]float64{
		"scan_timeout": 1, "shed": 2, "worker_panic": 0,
		"thrash_fallback": 0, "cache_grow": 0, "pinned_scan": 0,
	}
	for reason, v := range want {
		have, ok := got[reason]
		if !ok {
			t.Errorf("degraded reason %q missing", reason)
		} else if have != v {
			t.Errorf("degraded{reason=%q} = %v, want %v", reason, have, v)
		}
	}
}

func TestHistogramSecondsConversion(t *testing.T) {
	s, lat := fullStats()
	var b strings.Builder
	if err := Write(&b, StatsFamilies(s, lat)); err != nil {
		t.Fatal(err)
	}
	fams, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	f := fams["imfant_stage_latency_seconds"]
	if f == nil || f.Kind != "histogram" {
		t.Fatalf("stage latency family missing or mistyped: %+v", f)
	}
	var sum, count float64
	sawScan := false
	for _, smp := range f.Samples {
		if smp.Labels["stage"] != "scan" {
			continue
		}
		sawScan = true
		switch smp.Name {
		case "imfant_stage_latency_seconds_sum":
			sum = smp.Value
		case "imfant_stage_latency_seconds_count":
			count = smp.Value
		case "imfant_stage_latency_seconds_bucket":
			if le := smp.Labels["le"]; le != "+Inf" {
				// All finite bounds must be sub-second for these samples
				// (the raw values are ≤ 90 µs in nanoseconds).
				v, err := strconv.ParseFloat(le, 64)
				if err != nil || v >= 1 {
					t.Errorf("le %q not converted to seconds", le)
				}
			}
		}
	}
	if !sawScan {
		t.Fatal("no scan-stage series")
	}
	if count != 2 {
		t.Errorf("scan count = %v, want 2", count)
	}
	wantSum := (1500.0 + 90000.0) / 1e9
	if diff := sum - wantSum; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("scan sum = %v, want %v", sum, wantSum)
	}
}

func TestStrategyLabels(t *testing.T) {
	s, lat := fullStats()
	var b strings.Builder
	if err := Write(&b, StatsFamilies(s, lat)); err != nil {
		t.Fatal(err)
	}
	fams, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	groups := map[string]float64{}
	for _, smp := range fams["imfant_strategy_groups"].Samples {
		groups[smp.Labels["strategy"]] = smp.Value
	}
	if groups["imfant"] != 1 || groups["lazydfa"] != 2 {
		t.Errorf("strategy groups = %v, want imfant→1 lazydfa→2", groups)
	}
	if _, ok := groups["ac"]; ok {
		t.Error("zero-group strategy 'ac' should be omitted from the snapshot")
	}
}

// TestSegmentFamilies pins the segment section's exposition: the parallel
// and serial byte paths partition imfant_bytes_scanned, and the stitch
// path and the fallback counter, which nothing can move, are not rendered.
func TestSegmentFamilies(t *testing.T) {
	s, lat := fullStats()
	var b strings.Builder
	if err := Write(&b, StatsFamilies(s, lat)); err != nil {
		t.Fatal(err)
	}
	fams, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"imfant_segment_scans", "imfant_segment_segments", "imfant_segment_bytes"} {
		if _, ok := fams[want]; !ok {
			t.Errorf("family %s missing from exposition", want)
		}
	}
	if _, ok := fams["imfant_segment_fallbacks"]; ok {
		t.Error("imfant_segment_fallbacks is rendered")
	}
	paths := map[string]float64{}
	var sum float64
	for _, smp := range fams["imfant_segment_bytes"].Samples {
		paths[smp.Labels["path"]] = smp.Value
		sum += smp.Value
	}
	if len(paths) != 2 || paths["parallel"] != 1024 || paths["serial"] != 4096-1024 {
		t.Errorf("segment byte paths = %v, want parallel 1024 and serial 3072 only", paths)
	}
	if sum != 4096 {
		t.Errorf("segment byte paths sum to %v, want imfant_bytes_scanned 4096", sum)
	}
}

func TestLabelEscaping(t *testing.T) {
	f := Family{Name: "x", Kind: Gauge, Help: "line\nbreak", Samples: []Sample{{
		Labels: []Label{{Name: "v", Value: "a\"b\\c\nd"}}, Value: 1,
	}}}
	var b strings.Builder
	if err := Write(&b, []Family{f}); err != nil {
		t.Fatal(err)
	}
	fams, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, b.String())
	}
	got := fams["x"].Samples[0].Labels["v"]
	if got != "a\"b\\c\nd" {
		t.Errorf("label round-trip = %q", got)
	}
}

func TestParseRejections(t *testing.T) {
	cases := map[string]string{
		"missing EOF":        "# TYPE a counter\na_total 1\n",
		"sample before TYPE": "a_total 1\n# TYPE a counter\n# EOF\n",
		"counter no _total":  "# TYPE a counter\na 1\n# EOF\n",
		"content after EOF":  "# EOF\n# TYPE a counter\n",
		"duplicate TYPE":     "# TYPE a counter\n# TYPE a counter\n# EOF\n",
		"bad value":          "# TYPE a gauge\na xyz\n# EOF\n",
		"le not increasing": "# TYPE h histogram\n" +
			"h_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\n" +
			"h_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n# EOF\n",
		"cumulative decreases": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n" +
			"h_bucket{le=\"+Inf\"} 5\nh_sum 3\nh_count 5\n# EOF\n",
		"inf below cumulative": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 3\nh_count 3\n# EOF\n",
		"missing inf bucket": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_sum 3\nh_count 5\n# EOF\n",
		"inf != count": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 3\nh_count 6\n# EOF\n",
	}
	for name, text := range cases {
		if _, err := Parse(strings.NewReader(text)); err == nil {
			t.Errorf("%s: Parse accepted invalid input:\n%s", name, text)
		}
	}
}

func TestParseAcceptsMultiSeriesHistogram(t *testing.T) {
	text := "# TYPE h histogram\n" +
		"h_bucket{le=\"1\",stage=\"a\"} 1\nh_bucket{le=\"+Inf\",stage=\"a\"} 2\n" +
		"h_sum{stage=\"a\"} 3\nh_count{stage=\"a\"} 2\n" +
		"h_bucket{le=\"4\",stage=\"b\"} 7\nh_bucket{le=\"+Inf\",stage=\"b\"} 7\n" +
		"h_sum{stage=\"b\"} 9\nh_count{stage=\"b\"} 7\n# EOF\n"
	if _, err := Parse(strings.NewReader(text)); err != nil {
		t.Fatalf("multi-series histogram rejected: %v", err)
	}
}

func TestOmittedSections(t *testing.T) {
	c := telemetry.NewCollector(0)
	c.AddScans(1)
	var b strings.Builder
	if err := Write(&b, StatsFamilies(c.Snapshot(), nil)); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, absent := range []string{"imfant_lazy", "imfant_prefilter", "imfant_accel",
		"imfant_strategy", "imfant_rule_hits", "imfant_stage_latency"} {
		if strings.Contains(out, absent) {
			t.Errorf("disabled section %s leaked into exposition:\n%s", absent, out)
		}
	}
	if _, err := Parse(strings.NewReader(out)); err != nil {
		t.Errorf("minimal exposition invalid: %v", err)
	}
}
