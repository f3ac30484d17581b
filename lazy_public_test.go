package imfant

import "testing"

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
