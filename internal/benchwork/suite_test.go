package benchwork

// The suite's arm names and speedup keys are what BENCH_N.json reports and
// what the regression gate compares across reports, so they are pinned to
// a golden file: renaming or dropping an arm or a key fails here instead of
// surfacing later as a "missing" warning in the gate. Regenerate with:
//
//	go test ./internal/benchwork -run TestSuiteGolden -update
//
// and review the diff like a report-format change.

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/suite.golden")

func TestSuiteGolden(t *testing.T) {
	s := New(Smoke)
	defer s.Close()
	arms := map[string]bool{}
	ns := map[string]float64{}
	var b strings.Builder
	for _, a := range s.Arms {
		if arms[a.Name] {
			t.Errorf("arm %q registered twice", a.Name)
		}
		arms[a.Name] = true
		ns[a.Name] = 1
		b.WriteString("arm\t" + a.Name + "\n")
	}
	for _, r := range s.Ratios {
		if !arms[r.Num] || !arms[r.Den] {
			t.Errorf("ratio %q names an unregistered arm: %q / %q", r.Key, r.Num, r.Den)
		}
		if r.Scale <= 0 {
			t.Errorf("ratio %q has scale %g", r.Key, r.Scale)
		}
	}
	speedups := s.Speedups(ns)
	if len(speedups) != len(s.Ratios)+len(s.gauges) {
		t.Errorf("%d speedup keys from %d ratios and %d gauges: a key is defined twice",
			len(speedups), len(s.Ratios), len(s.gauges))
	}
	keys := make([]string, 0, len(speedups))
	for k := range speedups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.WriteString("speedup\t" + k + "\n")
	}

	path := filepath.Join("testdata", "suite.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to generate): %v", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("suite arms or speedup keys drifted from %s — if intentional, regenerate with -update.\n got:\n%s\nwant:\n%s",
			path, got, want)
	}
}
