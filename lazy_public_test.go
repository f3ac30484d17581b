package imfant

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"
)

var enginePats = []string{"GET /a[bd]", "cmd\\.exe", "ab+c", "^GET", "exe$"}

const engineInput = "GET /ab cmd.exe abbbc GET /ad x.exe"

func TestScannerReuse(t *testing.T) {
	rs := MustCompile(enginePats, Options{KeepOnMatch: true, Engine: EngineLazyDFA})
	s := rs.NewScanner()
	first := s.Count([]byte(engineInput))
	if first == 0 {
		t.Fatal("no matches")
	}
	for i := 0; i < 3; i++ {
		if c := s.Count([]byte(engineInput)); c != first {
			t.Fatalf("reuse changed count: %d vs %d", c, first)
		}
	}
	if c := s.Count([]byte("nothing here")); c != 0 {
		t.Fatalf("state leaked across scans: %d", c)
	}
	per := s.CountPerRule([]byte(engineInput))
	var total int64
	for _, c := range per {
		total += c
	}
	if total != first {
		t.Fatalf("per-rule sum %d, want %d", total, first)
	}
}

// TestAccelJumpLinear pins linear state acceleration on scans without a
// checkpoint: a lazy-DFA state parked on a needle set whose rarest byte
// never occurs must not rescan the rest of the input on every jump. An
// unchecked Count hands the accelerated hunt the whole input at once, a
// cancellable CountContext 4 KiB blocks; the two must cost about the same.
func TestAccelJumpLinear(t *testing.T) {
	rs := MustCompile([]string{"needle", "foo.*bar", "x[0-9]+", "q[a-f]+.*w+", "k[0-9]+.*m+", "zz[0-9]+"},
		Options{MergeFactor: 1})
	const alphabet = "abfoqwkmxz0123456789 -"
	rng := rand.New(rand.NewSource(1))
	input := make([]byte, 1<<20)
	for i := range input {
		input[i] = alphabet[rng.Intn(len(alphabet))]
	}
	sc := rs.NewScanner()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	want, err := sc.CountContext(ctx, input)
	if err != nil {
		t.Fatal(err)
	}
	best := func(f func() int64) time.Duration {
		d := time.Duration(math.MaxInt64)
		for range 3 {
			t0 := time.Now()
			if got := f(); got != want {
				t.Fatalf("count %d, want %d", got, want)
			}
			d = min(d, time.Since(t0))
		}
		return d
	}
	checked := best(func() int64 { n, _ := sc.CountContext(ctx, input); return n })
	unchecked := best(func() int64 { return sc.Count(input) })
	t.Logf("unchecked Count %v, cancellable CountContext %v", unchecked, checked)
	if unchecked > 5*checked+5*time.Millisecond {
		t.Fatalf("unchecked Count %v, cancellable CountContext %v: over 5x", unchecked, checked)
	}
}
