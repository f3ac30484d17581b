package main

import (
	"reflect"
	"testing"

	"repro/internal/experiments"
)

func TestIntListSet(t *testing.T) {
	var l intList
	if err := l.Set("1,2,all,50"); err != nil {
		t.Fatal(err)
	}
	if err := l.Set("100"); err != nil {
		t.Fatal(err)
	}
	want := intList{1, 2, 0, 50, 100}
	if !reflect.DeepEqual(l, want) {
		t.Fatalf("got %v, want %v", l, want)
	}
	if err := l.Set("x"); err == nil {
		t.Fatal("bad integer accepted")
	}
	if l.String() == "" {
		t.Fatal("empty String")
	}
}

func TestStrListSet(t *testing.T) {
	var l strList
	if err := l.Set("bro, ds9 ,PEN"); err != nil {
		t.Fatal(err)
	}
	want := strList{"BRO", "DS9", "PEN"}
	if !reflect.DeepEqual(l, want) {
		t.Fatalf("got %v, want %v", l, want)
	}
	if l.String() != "BRO,DS9,PEN" {
		t.Fatalf("String=%q", l.String())
	}
}

// TestRunStrategy smoke-tests the -strategy study at a small size: every
// workload must classify as designed (the speedup numbers themselves are
// CI artifacts, not test assertions — timing is machine-dependent).
func TestRunStrategy(t *testing.T) {
	o := experiments.Opts{StreamSize: 32 << 10, Reps: 1}
	rows, err := runStrategy(nil, o)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"all-literal": "ac",
		"anchored":    "anchored",
		"small-group": "dfa",
		"mixed":       "ac,anchored,dfa,lazydfa",
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for _, row := range rows {
		if row.Strategies != want[row.Workload] {
			t.Errorf("%s: classified %q, want %q", row.Workload, row.Strategies, want[row.Workload])
		}
		if row.PlanTime <= 0 || row.LazyTime <= 0 {
			t.Errorf("%s: non-positive timing %v / %v", row.Workload, row.LazyTime, row.PlanTime)
		}
	}
}

// TestRunObs smoke-tests the -obs study at a small size: the three
// instrumentation configs must report identical matches (instrumentation
// never changes results) and positive timings. Overhead ratios are CI
// artifacts, not test assertions — timing is machine-dependent, so the
// gate runs unbounded here.
func TestRunObs(t *testing.T) {
	o := experiments.Opts{StreamSize: 32 << 10, Reps: 1}
	rows, err := runObs(nil, o, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, row := range rows {
		if row.Matches != rows[0].Matches {
			t.Errorf("%s: %d matches, off config had %d", row.Config, row.Matches, rows[0].Matches)
		}
		if row.Time <= 0 || row.Overhead <= 0 {
			t.Errorf("%s: non-positive timing %v / %.3f", row.Config, row.Time, row.Overhead)
		}
	}
}
