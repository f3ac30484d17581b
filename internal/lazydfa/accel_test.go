package lazydfa

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/engine"
)

// fillerInput returns n bytes of mostly-dead filler ('0'–'9') with the given
// live fragments salted in at deterministic positions.
func fillerInput(n int, seed int64, frags ...string) []byte {
	r := rand.New(rand.NewSource(seed))
	in := make([]byte, n)
	for i := range in {
		in[i] = byte('0' + r.Intn(10))
	}
	for _, f := range frags {
		if len(f) >= n {
			continue
		}
		off := r.Intn(n - len(f))
		copy(in[off:], f)
	}
	return in
}

// TestAccelClassification checks that a ruleset with few start bytes yields
// accelerable cached states and that a loop-dominated stream is consumed
// almost entirely by jumps.
func TestAccelClassification(t *testing.T) {
	_, m := compile(t, "xy", "xz")
	in := fillerInput(4096, 1) // no 'x' anywhere: the scan never leaves state 0
	am := with(m, Options{KeepOnMatch: true, Accel: true})
	res := NewRunner(am).Run(in, Config{})
	if res.Matches != 0 {
		t.Fatalf("filler input matched %d times", res.Matches)
	}
	if res.AccelStates == 0 {
		t.Fatal("no cached state classified accelerable")
	}
	if n := am.Stats().AccelStates; n != res.AccelStates {
		t.Fatalf("Stats().AccelStates = %d, Result.AccelStates = %d", n, res.AccelStates)
	}
	// Byte 0 and the final byte always step; everything between is dead.
	if want := int64(len(in) - 2); res.AccelBytes < want {
		t.Fatalf("AccelBytes = %d, want ≥ %d on an all-dead stream", res.AccelBytes, want)
	}
	if res.AccelBytes > int64(res.Symbols) {
		t.Fatalf("AccelBytes %d exceeds Symbols %d", res.AccelBytes, res.Symbols)
	}

	// Accel off: same events, zero accel counters.
	off := NewRunner(with(m, keepOpts)).Run(in, Config{})
	if off.AccelBytes != 0 || off.AccelStates != 0 {
		t.Fatalf("accel off reported AccelBytes=%d AccelStates=%d", off.AccelBytes, off.AccelStates)
	}
	if off.Matches != res.Matches {
		t.Fatalf("match counts diverged: on=%d off=%d", res.Matches, off.Matches)
	}
}

// TestAccelProfiledSamples checks satellite invariant: under the sampling
// profiler, a multi-byte jump settles its crossed stride boundaries as bulk
// samples of the parked state, so sample counts and per-state visit heat are
// byte-identical with acceleration on and off.
func TestAccelProfiledSamples(t *testing.T) {
	_, m := compile(t, "xya", "x[yz]b", "z+x")
	in := fillerInput(8192, 4, "xya", "xzb", "zzzx", "xy")
	for _, chunk := range []int{len(in), 100, 7} {
		profOn := engine.NewProfile(m.p, 64)
		profOff := engine.NewProfile(m.p, 64)
		for _, run := range []struct {
			prof  *engine.Profile
			accel bool
		}{{profOn, true}, {profOff, false}} {
			r := NewRunner(with(m, Options{KeepOnMatch: true, Accel: run.accel}))
			r.Begin(Config{Profile: run.prof})
			for pos := 0; pos < len(in); pos += chunk {
				end := pos + chunk
				if end > len(in) {
					end = len(in)
				}
				r.Feed(in[pos:end], end == len(in))
			}
			r.End()
		}
		if profOn.Samples() != profOff.Samples() {
			t.Fatalf("chunk=%d: sample counts diverged: accel %d, baseline %d",
				chunk, profOn.Samples(), profOff.Samples())
		}
		if !reflect.DeepEqual(profOn.Visits(), profOff.Visits()) {
			t.Fatalf("chunk=%d: per-state visits diverged:\naccel    %v\nbaseline %v",
				chunk, profOn.Visits(), profOff.Visits())
		}
		if !reflect.DeepEqual(profOn.FSAActive(), profOff.FSAActive()) {
			t.Fatalf("chunk=%d: per-FSA heat diverged", chunk)
		}
	}
}

// TestAccelEndAnchoredLastByte pins the stream-end carve-out: a $-anchored
// rule whose final byte is reachable only from an accelerable state must
// still match on the true last byte — a jump may not swallow it.
func TestAccelEndAnchoredLastByte(t *testing.T) {
	_, m := compile(t, "x$")
	in := append(fillerInput(256, 6), 'x') // only 'x' is the last byte
	want := Matches(with(m, keepOpts), in, Config{})
	got := Matches(with(m, Options{KeepOnMatch: true, Accel: true}), in, Config{})
	if len(want) == 0 {
		t.Fatal("oracle found no match; test input broken")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("accel diverged on $-anchored last byte: %v vs %v", got, want)
	}
}
