package imfant

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"testing"
)

func TestStreamMatcherAsWriter(t *testing.T) {
	rs := MustCompile([]string{"needle"}, Options{})
	sm := rs.NewStreamMatcher(nil)
	var w io.WriteCloser = sm
	src := bytes.NewReader([]byte("hay needle hay needle"))
	if _, err := io.CopyBuffer(w, src, make([]byte, 3)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if sm.Matches() != 2 {
		t.Fatalf("matches=%d", sm.Matches())
	}
}

func TestStreamMatcherEndAnchorTiming(t *testing.T) {
	rs := MustCompile([]string{"ab$"}, Options{})
	var got []Match
	sm := rs.NewStreamMatcher(func(m Match) { got = append(got, m) })
	sm.Write([]byte("ab"))
	if len(got) != 0 {
		t.Fatalf("$ fired before Close: %v", got)
	}
	sm.Close()
	if len(got) != 1 || got[0].End != 1 {
		t.Fatalf("after Close: %v", got)
	}
	// Contrast: data following "ab" kills the anchor.
	got = nil
	sm = rs.NewStreamMatcher(func(m Match) { got = append(got, m) })
	sm.Write([]byte("ab"))
	sm.Write([]byte("x"))
	sm.Close()
	if len(got) != 0 {
		t.Fatalf("$ fired mid-stream: %v", got)
	}
}

func TestStreamMatcherCloseIdempotent(t *testing.T) {
	rs := MustCompile([]string{"x"}, Options{})
	sm := rs.NewStreamMatcher(nil)
	sm.Write([]byte("xx"))
	sm.Close()
	n := sm.Matches()
	sm.Close()
	sm.Write([]byte("xxx"))
	if sm.Matches() != n {
		t.Fatal("writes after Close were processed")
	}
}

func TestStreamMatcherEmpty(t *testing.T) {
	rs := MustCompile([]string{"x"}, Options{})
	sm := rs.NewStreamMatcher(nil)
	sm.Write(nil)
	sm.Close()
	if sm.Matches() != 0 {
		t.Fatal("phantom matches")
	}
}

// TestStreamConsumedBytesMatchedOnCancel is the regression test for the
// held-byte accounting bug: Write used to report the held-back byte as
// consumed even though a cancellation meant it was never fed to any
// automaton, silently dropping matches ending on it. Now every byte Write
// reports as consumed is matched against: a match completing on the held
// byte is reported when the cancellation is observed, while $-anchored
// rules still do not fire (the true stream end was never seen).
func TestStreamConsumedBytesMatchedOnCancel(t *testing.T) {
	rs := MustCompile([]string{"xa", "a$"}, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	var got []Match
	sm := rs.NewStreamMatcherContext(ctx, func(m Match) { got = append(got, m) })

	n, err := sm.Write([]byte("xa"))
	if n != 2 || err != nil {
		t.Fatalf("Write = (%d, %v), want (2, nil)", n, err)
	}
	cancel()
	if n2, err2 := sm.Write([]byte("zz")); n2 != 0 || !errors.Is(err2, context.Canceled) {
		t.Fatalf("post-cancel Write = (%d, %v)", n2, err2)
	}
	// The 'a' at offset 1 was reported as consumed, so "xa" must have
	// been completed on it; "a$" must not fire.
	want := []Match{{Rule: 0, Pattern: "xa", End: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("matches after cancel: %v, want %v", got, want)
	}
	if err := sm.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close = %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Close changed the match set: %v", got)
	}
}

// TestStreamCloseImmediatelyAfterCancel covers the unobserved-cancellation
// path: the context is cancelled after a healthy Write and Close is the
// first checkpoint to see it. Close must return the context error, match
// the held byte as ordinary data, and suppress $-anchored accepts.
func TestStreamCloseImmediatelyAfterCancel(t *testing.T) {
	for _, opts := range []Options{{}, {Engine: EngineLazyDFA, KeepOnMatch: true}} {
		rs := MustCompile([]string{"xa", "a$"}, opts)
		ctx, cancel := context.WithCancel(context.Background())
		var got []Match
		sm := rs.NewStreamMatcherContext(ctx, func(m Match) { got = append(got, m) })
		if n, err := sm.Write([]byte("xa")); n != 2 || err != nil {
			t.Fatalf("opts %+v: Write = (%d, %v)", opts, n, err)
		}
		cancel()
		if err := sm.Close(); !errors.Is(err, context.Canceled) {
			t.Fatalf("opts %+v: Close = %v", opts, err)
		}
		want := []Match{{Rule: 0, Pattern: "xa", End: 1}}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("opts %+v: matches %v, want %v", opts, got, want)
		}
		if !errors.Is(sm.Err(), context.Canceled) {
			t.Fatalf("opts %+v: Err() = %v", opts, sm.Err())
		}
	}
}
