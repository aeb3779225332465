package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"testing"
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
