package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/benchwork"
)

// Every checked-in report must stay readable by -diff and -baseline, and
// the newest one must carry the smoke speedups the regression gate reads.
func TestLoadCheckedInReports(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no BENCH_*.json reports found (err %v)", err)
	}
	num := regexp.MustCompile(`BENCH_(\d+)\.json$`)
	newest, newestN := "", -1
	for _, p := range paths {
		r, err := loadReport(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		sec := pickSection(r)
		if sec.N <= 0 || len(sec.Results) == 0 || len(sec.Speedups) == 0 {
			t.Errorf("%s: picked section has n=%d, %d results, %d speedups",
				p, sec.N, len(sec.Results), len(sec.Speedups))
		}
		if m := num.FindStringSubmatch(p); m != nil {
			if n, _ := strconv.Atoi(m[1]); n > newestN {
				newest, newestN = p, n
			}
		}
	}

	r, err := loadReport(newest)
	if err != nil {
		t.Fatal(err)
	}
	if r.Smoke == nil || len(r.Smoke.Speedups) == 0 {
		t.Fatalf("%s: no smoke section with speedups", newest)
	}
	// Re-encoding the newest report keeps its top-level field names and
	// order: the embedded Section flattens in place.
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := topLevelKeys(t, data), topLevelKeys(t, raw); !slices.Equal(got, want) {
		t.Errorf("%s re-encodes with top-level keys\n%v\nwant\n%v", newest, got, want)
	}
}

// topLevelKeys lists a JSON object's keys in document order.
func topLevelKeys(t *testing.T, data []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	if _, err := dec.Token(); err != nil { // the opening brace
		t.Fatal(err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestQuickMeasureInterleavedMedian: quickMeasure times the arms in
// interleaved rounds (a, b, a, b, …) after one warm-up each; an op longer
// than one sample's share of the budget runs once per sample, so Iters
// counts the samples, and one slow sample does not move its arm's median.
func TestQuickMeasureInterleavedMedian(t *testing.T) {
	var order []string
	calls := map[string]int{}
	arm := func(name string, d time.Duration) benchwork.Arm {
		return benchwork.Arm{Name: name, Op: func() {
			order = append(order, name)
			calls[name]++
			if name == "a" && calls[name] == 3 { // a's second timed sample
				time.Sleep(100 * time.Millisecond)
				return
			}
			time.Sleep(d)
		}}
	}
	rs := quickMeasure([]benchwork.Arm{arm("a", 31*time.Millisecond), arm("b", 40*time.Millisecond)})
	if want := "abababababab"; strings.Join(order, "") != want {
		t.Fatalf("call order %q, want warm-ups then interleaved rounds %q", strings.Join(order, ""), want)
	}
	for i, want := range []struct {
		name   string
		lo, hi float64
	}{{"a", 31, 100}, {"b", 40, 100}} {
		r := rs[i]
		if r.Name != want.name || r.Iters != 5 {
			t.Fatalf("result %d = %s over %d iters, want %s over 5 timed samples", i, r.Name, r.Iters, want.name)
		}
		if r.MsPerOp < want.lo || r.MsPerOp >= want.hi {
			t.Fatalf("%s: ms/op = %.1f, want its median sample (≥ %.0f ms), not the 100 ms outlier", r.Name, r.MsPerOp, want.lo)
		}
	}
}

// pairArms pairs the arms both reports measured, in this report's order,
// and names the baseline by its file name, never by the directory it was
// read from.
func TestPairArms(t *testing.T) {
	res := func(name string, ms float64, allocs int64) Result {
		return Result{Name: name, MsPerOp: ms, AllocsOp: allocs}
	}
	old := Report{Section: Section{Results: []Result{res("a", 4, 10), res("gone", 1, 1)}},
		Store: &Section{Results: []Result{res("s", 9, 3)}}}
	cur := Report{Section: Section{Results: []Result{res("new", 1, 1), res("a", 2, 5)}},
		Store: &Section{Results: []Result{res("s", 3, 3)}}}
	b := pairArms(filepath.Join(t.TempDir(), "reports", "BENCH_25.json"), old, cur)
	if b.From != "BENCH_25.json" {
		t.Fatalf("baseline from %q, want the file name BENCH_25.json", b.From)
	}
	want := []BeforeAfter{
		{Name: "a", Section: "full", BeforeMs: 4, AfterMs: 2, Speedup: 2, BeforeAllocs: 10, AfterAllocs: 5},
		{Name: "s", Section: "store", BeforeMs: 9, AfterMs: 3, Speedup: 3, BeforeAllocs: 3, AfterAllocs: 3},
	}
	if !slices.Equal(b.Arms, want) {
		t.Fatalf("arms %+v, want %+v", b.Arms, want)
	}
}
