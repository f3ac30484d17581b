package imfant

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// registryOracle compiles patterns standalone and returns the sorted match
// list for input — the ground truth a registry-routed scan of the same
// version must reproduce byte-identically.
func registryOracle(t *testing.T, patterns []string, opts Options, input []byte) []Match {
	t.Helper()
	rs, err := Compile(patterns, opts)
	if err != nil {
		t.Fatalf("oracle compile: %v", err)
	}
	return rs.FindAll(input)
}

func TestRegistryBasics(t *testing.T) {
	r, err := NewRegistry([]string{"abc", "def"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Version(); got != 1 {
		t.Fatalf("fresh registry version = %d, want 1", got)
	}
	input := []byte("xx abc yy def zz xyz")
	if got := r.Count(input); got != 2 {
		t.Fatalf("v1 count = %d, want 2", got)
	}
	if _, err := r.Update([]string{"abc", "xyz"}, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := r.Version(); got != 2 {
		t.Fatalf("after update version = %d, want 2", got)
	}
	if got := r.Count(input); got != 2 {
		t.Fatalf("v2 count = %d, want 2 (abc+xyz)", got)
	}
	got := r.FindAll(input)
	want := registryOracle(t, []string{"abc", "xyz"}, Options{}, input)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v2 FindAll = %v, want %v", got, want)
	}
	// A failed update must leave the current version untouched.
	if _, err := r.Update([]string{"("}, Options{}); err == nil {
		t.Fatal("update with bad pattern: want error")
	}
	if got := r.Version(); got != 2 {
		t.Fatalf("after failed update version = %d, want 2", got)
	}
	if got := r.Count(input); got != 2 {
		t.Fatalf("after failed update count = %d, want 2", got)
	}
}

func TestRegistryUpdateBackground(t *testing.T) {
	r, err := NewRegistry([]string{"abc"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-r.UpdateBackground([]string{"def"}, Options{}):
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("background update did not complete")
	}
	if got := r.Count([]byte("abc def")); got != 1 {
		t.Fatalf("post-swap count = %d, want 1 (def only)", got)
	}
	if err := <-r.UpdateBackground([]string{"["}, Options{}); err == nil {
		t.Fatal("background update with bad pattern: want error")
	}
	if got := r.Version(); got != 2 {
		t.Fatalf("version after failed background update = %d, want 2", got)
	}
}

// TestRegistryStreamPinsVersion: a stream created before a swap keeps the
// old version's semantics for its whole life, while new block scans observe
// the new version immediately — the core zero-downtime contract.
func TestRegistryStreamPinsVersion(t *testing.T) {
	v1 := []string{"oldrule"}
	v2 := []string{"newrule"}
	r, err := NewRegistry(v1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var streamed []Match
	sm := r.NewStreamMatcher(func(m Match) { streamed = append(streamed, m) })

	if _, err := r.Update(v2, Options{}); err != nil {
		t.Fatal(err)
	}
	input := []byte("-- oldrule -- newrule --")
	// New scans run on v2 right away.
	got := r.FindAll(input)
	want := registryOracle(t, v2, Options{}, input)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-swap FindAll = %v, want v2 oracle %v", got, want)
	}
	// The open stream still pins v1: DrainOld must not report clear yet.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := r.DrainOld(ctx); err == nil {
		t.Fatal("DrainOld with an open v1 stream: want timeout, got nil")
	}
	// And it matches on v1 rules even though v2 is current.
	if _, err := sm.Write(input); err != nil {
		t.Fatal(err)
	}
	if err := sm.Close(); err != nil {
		t.Fatal(err)
	}
	wantStream := registryOracle(t, v1, Options{}, input)
	if !reflect.DeepEqual(streamed, wantStream) {
		t.Fatalf("stream matches = %v, want v1 oracle %v", streamed, wantStream)
	}
	// Close released the pin: the drain barrier clears.
	if err := r.DrainOld(context.Background()); err != nil {
		t.Fatalf("DrainOld after stream close: %v", err)
	}
}

// TestRegistrySwapDrainUnderTraffic hammers a registry with concurrent
// block scans and streams while the main goroutine hot-swaps between two
// versions. Every scan must return a match list byte-identical to exactly
// one version's oracle — never a blend, never a truncation — and the final
// drain must clear once traffic stops.
func TestRegistrySwapDrainUnderTraffic(t *testing.T) {
	v1 := []string{"needle", "VERSIONONE"}
	v2 := []string{"needle", "VERSIONTWO"}
	opts := Options{KeepOnMatch: true} // exercise the lazy-DFA engine too

	var input bytes.Buffer
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&input, "junk%04d ", rng.Intn(10000))
		if i%9 == 0 {
			input.WriteString("needle ")
		}
		if i == 50 {
			input.WriteString("VERSIONONE ")
		}
		if i == 150 {
			input.WriteString("VERSIONTWO ")
		}
	}
	payload := input.Bytes()
	oracle1 := registryOracle(t, v1, opts, payload)
	oracle2 := registryOracle(t, v2, opts, payload)
	if len(oracle1) == 0 || len(oracle2) == 0 || reflect.DeepEqual(oracle1, oracle2) {
		t.Fatalf("bad fixture: oracles %d/%d matches", len(oracle1), len(oracle2))
	}
	matchesOneOracle := func(got []Match) bool {
		return reflect.DeepEqual(got, oracle1) || reflect.DeepEqual(got, oracle2)
	}

	r, err := NewRegistry(v1, opts)
	if err != nil {
		t.Fatal(err)
	}
	rs2, err := Compile(v2, opts)
	if err != nil {
		t.Fatal(err)
	}
	rs1 := r.Current()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	report := func(format string, args ...any) {
		select {
		case errs <- fmt.Sprintf(format, args...):
		default:
		}
	}

	// Block scanners: each FindAll pins whichever version is current.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got := r.FindAll(payload)
				if !matchesOneOracle(got) {
					report("FindAll returned a blended/truncated match list (%d matches)", len(got))
					return
				}
			}
		}()
	}
	// Streamers: chunked writes across many swap boundaries; the pinned
	// version must hold for the whole stream.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				var got []Match
				sm := r.NewStreamMatcher(func(m Match) { got = append(got, m) })
				rest := payload
				for len(rest) > 0 {
					n := 1 + rng.Intn(len(rest))
					if _, err := sm.Write(rest[:n]); err != nil {
						report("stream write: %v", err)
						sm.Close()
						return
					}
					rest = rest[n:]
				}
				if err := sm.Close(); err != nil {
					report("stream close: %v", err)
					return
				}
				sortByEnd(got)
				if !matchesOneOracle(got) {
					report("stream returned a blended/truncated match list (%d matches)", len(got))
					return
				}
			}
		}(int64(g))
	}

	// Hot-swap churn: alternate the two precompiled versions.
	deadline := time.Now().Add(300 * time.Millisecond)
	for i := 0; time.Now().Before(deadline); i++ {
		if i%2 == 0 {
			r.Swap(rs2)
		} else {
			r.Swap(rs1)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	// Traffic has quiesced: every superseded version must drain.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.DrainOld(ctx); err != nil {
		t.Fatalf("DrainOld after traffic stopped: %v", err)
	}
	if got := r.Version(); got < 3 {
		t.Fatalf("version = %d, want several swaps applied", got)
	}
}
