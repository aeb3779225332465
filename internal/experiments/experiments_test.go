package experiments

import (
	"bytes"
	"context"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

// Every registered experiment must run cleanly at a tiny scale and produce
// its headline sections. These are the integration tests for the harness;
// numeric fidelity is covered by the packages' own unit tests and recorded
// in EXPERIMENTS.md.

func tinyConfig(buf *bytes.Buffer) Config {
	return Config{Out: buf, Scale: 0.002, Seed: 1}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "table3"}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Fatalf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(All()), len(want))
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID should miss unknown ids")
	}
}

func TestTable1Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := runTable1(context.Background(), tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "E-Score", "U-Top", "Syn-IND"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig4Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := runFig4(context.Background(), tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"DFT", "DFT+DF", "DFT+DF+IS", "DFT+DF+IS+ES", "MSE"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

func TestFig5Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := runFig5(context.Background(), tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"step", "linear", "smooth"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

func TestFig6Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := runFig6(context.Background(), tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "crossing at") {
		t.Fatalf("no crossing points reported:\n%s", out)
	}
	if !strings.Contains(out, "no crossing (domination)") {
		t.Fatal("the dominated pair must be reported")
	}
}

func TestFig7Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := runFig7(context.Background(), tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "IIP") || !strings.Contains(buf.String(), "Syn-IND") {
		t.Fatal("both datasets must appear")
	}
}

func TestFig8Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := runFig8(context.Background(), tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 8(i)") || !strings.Contains(buf.String(), "Figure 8(ii)") {
		t.Fatal("both parts must appear")
	}
}

func TestFig9Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := runFig9(context.Background(), tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "learning PRFe") || !strings.Contains(buf.String(), "learning PRFω") {
		t.Fatal("both learning parts must appear")
	}
}

func TestFig10Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := runFig10(context.Background(), tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Syn-XOR", "Syn-LOW", "Syn-MED", "Syn-HIGH"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

func TestFig11Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := runFig11(context.Background(), tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 11(i)", "Figure 11(ii)", "Figure 11(iii)"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

func TestTable3Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := runTable3(context.Background(), tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fitted") {
		t.Fatal("fitted exponents missing")
	}
}

func TestScaledClamping(t *testing.T) {
	cfg := Config{Out: io.Discard, Scale: 0.00001, Seed: 1}
	if got := cfg.scaled(100000, 500); got != 500 {
		t.Fatalf("scaled floor: %d", got)
	}
	cfg.Scale = 2
	if got := cfg.scaled(1000, 1); got != 2000 {
		t.Fatalf("scaled: %d", got)
	}
}

func TestSampleIndicesDistinctSorted(t *testing.T) {
	idx := sampleIndices(100, 30, 7)
	seen := map[int]bool{}
	for i, v := range idx {
		if v < 0 || v >= 100 {
			t.Fatalf("index out of range: %d", v)
		}
		if seen[v] {
			t.Fatalf("duplicate index %d", v)
		}
		seen[v] = true
		if i > 0 && idx[i-1] > v {
			t.Fatal("not sorted")
		}
	}
	if got := sampleIndices(10, 50, 7); len(got) != 10 {
		t.Fatalf("clamp failed: %d", len(got))
	}
}

func TestLogGridAvoidsExactZero(t *testing.T) {
	is, alphas := logGrid(5, 10)
	if is[0] != 0 || alphas[0] <= 0 {
		t.Fatalf("first grid point: i=%d α=%v", is[0], alphas[0])
	}
	if alphas[4] <= alphas[1] {
		t.Fatal("grid not increasing")
	}
}

func TestFitExponentLinearAndQuadratic(t *testing.T) {
	ns := []int{1000, 2000, 4000, 8000}
	lin := make([]time.Duration, len(ns))
	quad := make([]time.Duration, len(ns))
	for i, n := range ns {
		lin[i] = time.Duration(n) * time.Microsecond
		quad[i] = time.Duration(n*n/1000) * time.Microsecond
	}
	if b := fitExponent(ns, lin); math.Abs(b-1) > 0.05 {
		t.Fatalf("linear data fitted exponent %v", b)
	}
	if b := fitExponent(ns, quad); math.Abs(b-2) > 0.05 {
		t.Fatalf("quadratic data fitted exponent %v", b)
	}
}
