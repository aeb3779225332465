package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
)

var smokeSizes = sizes{big: 3000, stream: 1000, consensus: 300, xrel: 500, chain: 40}

// benchmarkSpec is the part of ../BENCHMARK.json the smoke run checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at smoke size, untraced and traced: each
// must finish with no failed or wrong answer and report exactly the
// metrics BENCHMARK.json declares, with their units.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{
				workload: wl.Name,
				seed:     7,
				measure:  600 * time.Millisecond,
				trace:    trace,
				sizes:    smokeSizes,
				reps:     2,
				workDir:  t.TempDir(),
			}
			var out bytes.Buffer
			rep, err := run(cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", wl.Name, trace, err, out.String())
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					wl.Name, trace, rep.Correct, rep.Attempted, rep.Failed, out.String())
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", wl.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl.Name, trace, m.Name, got, m.Unit)
				}
			}
			if wl.Name == "refresh-mixed" && trace && rep.Metrics["refresh_p50_ms"].Value == 0 {
				t.Errorf("refresh-mixed made no refresh in the smoke run\n%s", out.String())
			}
		}
	}
}
