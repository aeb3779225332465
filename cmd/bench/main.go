// Command bench runs the repeated-query benchmark suite behind the
// prepared-evaluation engine and emits a machine-readable BENCH_N.json, so
// the repository's performance trajectory is recorded PR over PR.
//
// Usage:
//
//	bench -out BENCH_N.json [-n 10000] [-grid 16] [-terms 20]
//	bench -smoke                      # run every workload once, tiny sizes
//	bench -smoke -out ci.json         # quick-measured smoke report
//	bench -diff OLD.json NEW.json     # regression gate (scripts/benchdiff.sh)
//	bench -load-conc 32 -load-dur 2s  # size the load-generator arm
//	bench -out NEW.json -baseline OLD.json  # also record before/after pairs
//
// The arms come from the registry in internal/benchwork: benchwork.New
// returns them in report order (spectrum and ranked-spectrum sweeps,
// crossing solvers, spectrum sizes, PRFe combinations, correlated backends,
// the unified engine and its cache, the consensus semantics, the
// independent-view kernels, α learning, HTTP serving and the persistent
// store) together with the ratio table that derives the speedup keys, and
// the root package's BenchmarkSuite runs the same arms under
// `go test -bench`. A full run measures them at the benchwork.Full preset,
// whose sizes -n, -grid, -terms and -chain override, and the store arms
// (benchwork.NewStore) again at -store-n. Beside them the report records
// what is not an ns/op arm:
//
//   - a cold-storm pair measuring the single-flight latch: wall time for
//     N identical cold requests, latch on vs off;
//   - load: a vegeta-style closed-loop load generator (QPS, p50/p95/p99
//     latency, allocated bytes per request under -load-conc concurrent
//     clients for -load-dur) against the in-process fixture or -load-addr.
//
// Modes beyond the full measured run:
//
//   - -smoke runs every workload body exactly once at tiny sizes and writes
//     no file — the CI guard that keeps the workloads compiling and running.
//     With -out it instead quick-measures each workload (short timed loops)
//     and writes a smoke-sized report for the regression gate.
//   - -diff compares two reports: dimensionless speedup ratios are the
//     gated signal (same-machine, same-size internal ratios — they survive
//     machine and size changes between reports), with warnings at
//     -warn-ratio and a non-zero exit beyond -fail-ratio; absolute timings
//     are compared warn-only and only between same-size reports. Keys
//     containing "overhead" are lower-is-better and gate inverted. The full
//     run embeds a quick-measured smoke section precisely so later -diff
//     runs compare smoke against smoke, size-for-size.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/benchwork"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/serve"
)

// Result is one measured benchmark case.
type Result struct {
	Name     string  `json:"name"`
	Iters    int     `json:"iters"`
	NsPerOp  float64 `json:"ns_per_op"`
	MsPerOp  float64 `json:"ms_per_op"`
	AllocsOp int64   `json:"allocs_per_op"`
	BytesOp  int64   `json:"bytes_per_op"`
}

// Section is one measured run of the whole suite at one size
// configuration. GOMAXPROCS and NumCPU are recorded so the regression gate
// only hard-compares like-for-like runs — concurrency-sensitive arms (the
// parallel sweeps, the single-flight storm) shift with core count.
type Section struct {
	N          int                `json:"dataset_size"`
	GridPoints int                `json:"spectrum_grid_points"`
	ComboTerms int                `json:"combo_terms"`
	ChainN     int                `json:"chain_length"`
	GOMAXPROCS int                `json:"gomaxprocs,omitempty"`
	NumCPU     int                `json:"num_cpu,omitempty"`
	Results    []Result           `json:"results"`
	Speedups   map[string]float64 `json:"speedups"`
}

// Report is the full BENCH_N.json payload: the full-size section inline
// (compatible with earlier BENCH files) plus a quick-measured smoke-size
// section for the size-for-size regression gate. The top-level GOMAXPROCS
// and NumCPU shadow the embedded section's in JSON, which keeps the field
// order of earlier reports.
type Report struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu,omitempty"`
	Section
	Load *LoadReport `json:"load,omitempty"`
	// Store holds the persistent-store arms re-run at -store-n (the
	// cold-open acceptance size), separate from the full-size section.
	Store *Section `json:"store,omitempty"`
	Smoke *Section `json:"smoke,omitempty"`
	// Baseline pairs every full-size and store arm with the same arm of an
	// earlier report (-baseline) measured on the same host — the
	// before/after record of a performance change.
	Baseline *Baseline `json:"baseline,omitempty"`
}

// Baseline is the before/after block of a report run with -baseline.
type Baseline struct {
	From string        `json:"from"`
	Arms []BeforeAfter `json:"arms"`
}

// BeforeAfter is one arm measured in the baseline report and in this one.
// Section is "full" (the suite at -n) or "store" (the -store-n arms).
type BeforeAfter struct {
	Name         string  `json:"name"`
	Section      string  `json:"section"`
	BeforeMs     float64 `json:"before_ms_per_op"`
	AfterMs      float64 `json:"after_ms_per_op"`
	Speedup      float64 `json:"speedup"`
	BeforeAllocs int64   `json:"before_allocs_per_op"`
	AfterAllocs  int64   `json:"after_allocs_per_op"`
}

// pairArms builds the before/after block: every arm present in both the
// baseline's and this report's full-size and store sections, in this
// report's order. The block names the baseline by its file name alone, so
// a report does not carry the directory it was measured in.
func pairArms(from string, old, cur Report) *Baseline {
	b := &Baseline{From: filepath.Base(from)}
	pair := func(section string, olds, curs []Result) {
		before := map[string]Result{}
		for _, r := range olds {
			before[r.Name] = r
		}
		for _, r := range curs {
			if o, ok := before[r.Name]; ok && o.MsPerOp > 0 && r.MsPerOp > 0 {
				b.Arms = append(b.Arms, BeforeAfter{Name: r.Name, Section: section,
					BeforeMs: o.MsPerOp, AfterMs: r.MsPerOp, Speedup: o.MsPerOp / r.MsPerOp,
					BeforeAllocs: o.AllocsOp, AfterAllocs: r.AllocsOp})
			}
		}
	}
	pair("full", old.Results, cur.Results)
	if old.Store != nil && cur.Store != nil {
		pair("store", old.Store.Results, cur.Store.Results)
	}
	return b
}

// LoadReport is the load-generator block of the report: the hot dashboard
// mix driven at -load-conc concurrency for -load-dur.
type LoadReport struct {
	Addr        string               `json:"addr"`
	Concurrency int                  `json:"concurrency"`
	GOMAXPROCS  int                  `json:"gomaxprocs,omitempty"`
	HotMix      benchwork.LoadResult `json:"hot_mix"`
}

// measureFunc measures the arms of one suite, returning one result per arm
// in arm order; nil means smoke mode (run once, no timing).
type measureFunc func(arms []benchwork.Arm) []Result

// fullMeasure runs every arm under the stdlib benchmark harness (≈1 s per
// arm), printing each result as it lands.
func fullMeasure(arms []benchwork.Arm) []Result {
	out := make([]Result, len(arms))
	for i, a := range arms {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.Op()
			}
		})
		out[i] = Result{
			Name:     a.Name,
			Iters:    r.N,
			NsPerOp:  float64(r.T.Nanoseconds()) / float64(r.N),
			MsPerOp:  float64(r.T.Nanoseconds()) / float64(r.N) / 1e6,
			AllocsOp: r.AllocsPerOp(),
			BytesOp:  r.AllocedBytesPerOp(),
		}
		printResult(out[i])
	}
	return out
}

// quickMeasure is the short harness behind the smoke report: one warm-up
// run per arm, then quickSamples rounds that each time every arm in turn
// for its share of a ~150 ms per-arm budget. An arm reports its median
// sample's ns/op; Iters is the total over its samples. Interleaving the
// rounds spreads every arm's samples over the whole run, so host load that
// drifts meanwhile lands on both arms of a speedup key instead of on
// whichever one ran at the wrong moment, and the median drops a sample
// caught by a GC cycle or a scheduler hiccup. Coarser than fullMeasure but
// cheap enough to run the whole suite per CI job; the regression gate's
// tolerances account for the extra noise.
func quickMeasure(arms []benchwork.Arm) []Result {
	const (
		budget       = 150 * time.Millisecond
		quickSamples = 5
	)
	for _, a := range arms {
		a.Op() // warm-up, excluded
	}
	samples := make([][]float64, len(arms))
	iters := make([]int, len(arms))
	for range quickSamples {
		for i, a := range arms {
			var n int
			start := time.Now()
			for n == 0 || time.Since(start) < budget/quickSamples {
				a.Op()
				n++
			}
			samples[i] = append(samples[i], float64(time.Since(start).Nanoseconds())/float64(n))
			iters[i] += n
		}
	}
	out := make([]Result, len(arms))
	for i, a := range arms {
		sort.Float64s(samples[i])
		ns := samples[i][quickSamples/2]
		out[i] = Result{Name: a.Name, Iters: iters[i], NsPerOp: ns, MsPerOp: ns / 1e6}
		printResult(out[i])
	}
	return out
}

// printResult prints one measured arm.
func printResult(r Result) {
	fmt.Printf("%-44s %12.3f ms/op  (%d iters, %d allocs/op, %d B/op)\n",
		r.Name, r.MsPerOp, r.Iters, r.AllocsOp, r.BytesOp)
}

// runSuite measures (or, with a nil measure, just runs) every registry arm
// at cfg, then the cold-storm pair.
func runSuite(cfg benchwork.Config, meas measureFunc) Section {
	s := benchwork.New(cfg)
	defer s.Close()
	sec := measureArms(s, meas)
	sec.N, sec.GridPoints, sec.ComboTerms, sec.ChainN = cfg.N, cfg.Grid, cfg.Terms, cfg.ChainN

	// Cold-storm pair: wall time for rounds × conc identical never-seen
	// requests, wire-layer single-flight on vs off. Wall-time measured (not
	// ns/op): the latch's value is what N callers experience together.
	stormConc, stormRounds := 32, 4
	if meas == nil || cfg.N <= 1000 {
		stormConc, stormRounds = 8, 2
	}
	latchTime, noLatchTime := s.ColdStorm(stormConc, stormRounds)
	fmt.Printf("%-44s %12.3f ms wall (%d×%d requests, latch on)\n",
		"serve/cold-storm/single-flight", float64(latchTime.Nanoseconds())/1e6, stormRounds, stormConc)
	fmt.Printf("%-44s %12.3f ms wall (%d×%d requests, latch off)\n",
		"serve/cold-storm/no-latch", float64(noLatchTime.Nanoseconds())/1e6, stormRounds, stormConc)
	if meas != nil && cfg.N > 1000 {
		// At smoke sizes a cold evaluation is cheaper than an HTTP round
		// trip, so the storm ratio is connection noise — recording it
		// would hand the regression gate a coin flip. Full sizes only.
		sec.Speedups["serve cold-storm single-flight vs no-latch"] =
			float64(noLatchTime.Nanoseconds()) / float64(latchTime.Nanoseconds())
	}
	return sec
}

// measureArms measures (or, with a nil measure, just runs) every arm of s
// in order and derives its speedup keys from the measured timings.
func measureArms(s *benchwork.Suite, meas measureFunc) Section {
	sec := Section{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Speedups: map[string]float64{}}
	if meas == nil {
		for _, a := range s.Arms {
			a.Op()
			fmt.Printf("%-44s ok\n", a.Name)
		}
		return sec
	}
	sec.Results = meas(s.Arms)
	nsPerOp := map[string]float64{}
	for _, r := range sec.Results {
		nsPerOp[r.Name] = r.NsPerOp
	}
	sec.Speedups = s.Speedups(nsPerOp)
	return sec
}

func main() {
	var (
		out       = flag.String("out", "", "output JSON path (required for a full run; in -smoke mode: no file unless set)")
		smoke     = flag.Bool("smoke", false, "run every workload once at tiny sizes (with -out: quick-measure and write a report)")
		diff      = flag.Bool("diff", false, "compare two reports: bench -diff OLD.json NEW.json")
		warnRatio = flag.Float64("warn-ratio", 1.5, "-diff: annotate speedup regressions beyond this ratio")
		failRatio = flag.Float64("fail-ratio", 5, "-diff: exit non-zero on speedup regressions beyond this ratio")
		loadConc  = flag.Int("load-conc", 32, "load arm: concurrent clients")
		loadDur   = flag.Duration("load-dur", 2*time.Second, "load arm: run duration (0 disables the load arm)")
		loadAddr  = flag.String("load-addr", "", "load arm: external server base URL (default: in-process fixture)")
		baseline  = flag.String("baseline", "", "full run: an earlier report measured on this host (e.g. of the parent commit); every shared full-size and store arm is recorded as a before/after pair")
	)
	cfg := benchwork.Full
	flag.IntVar(&cfg.N, "n", cfg.N, "dataset size")
	flag.IntVar(&cfg.Grid, "grid", cfg.Grid, "α grid points for the spectrum sweeps")
	flag.IntVar(&cfg.Terms, "terms", cfg.Terms, "terms in the PRFe combination")
	flag.IntVar(&cfg.ChainN, "chain", cfg.ChainN, "Markov-chain length (the DP arm is cubic: keep small)")
	flag.IntVar(&cfg.StoreN, "store-n", cfg.StoreN, "persistent-store trajectory: dataset size for the cold-open arms (0 disables)")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -diff needs exactly two report paths: bench -diff OLD.json NEW.json")
			os.Exit(2)
		}
		if err := runDiff(flag.Arg(0), flag.Arg(1), *warnRatio, *failRatio); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	if *smoke {
		if *out == "" {
			runSuite(benchwork.Smoke, nil)
			fmt.Println("\nsmoke ok: all workloads ran")
			return
		}
		sec := runSuite(benchwork.Smoke, quickMeasure)
		report := newReport(sec)
		report.Smoke = &sec
		writeReport(report, *out)
		return
	}

	if *out == "" {
		fmt.Fprintln(os.Stderr, "bench: a full run needs -out PATH (scripts/bench.sh passes the next BENCH_N.json)")
		os.Exit(2)
	}
	var old Report
	if *baseline != "" {
		var err error
		if old, err = loadReport(*baseline); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	report := newReport(runSuite(cfg, fullMeasure))
	if cfg.StoreN > 0 {
		fmt.Printf("\npersistent-store trajectory at n=%d…\n", cfg.StoreN)
		st := benchwork.NewStore(cfg.StoreN)
		ssec := measureArms(st, fullMeasure)
		st.Close()
		ssec.N = cfg.StoreN
		// Suffixed, the keys sit beside the suite's own store keys at -n.
		suffixed := map[string]float64{}
		for k, v := range ssec.Speedups {
			k = fmt.Sprintf("%s@%d", k, cfg.StoreN)
			suffixed[k] = v
			report.Speedups[k] = v
		}
		ssec.Speedups = suffixed
		report.Store = &ssec
	}
	if *loadDur > 0 {
		fmt.Printf("\nload arm: %d clients for %v…\n", *loadConc, *loadDur)
		lr := runLoadArm(*loadAddr, *loadConc, *loadDur, cfg.N, cfg.Grid)
		report.Load = &lr
		fmt.Printf("%-44s %10.0f qps  p50 %.3f ms  p95 %.3f ms  p99 %.3f ms  %d B/req (%d reqs, %d errors)\n",
			"load/hot-mix", lr.HotMix.QPS, lr.HotMix.P50MS, lr.HotMix.P95MS, lr.HotMix.P99MS,
			int64(lr.HotMix.AllocPerReq), lr.HotMix.Requests, lr.HotMix.Errors)
	}
	fmt.Println("\nquick-measuring the smoke-size section for the regression gate…")
	smokeSec := runSuite(benchwork.Smoke, quickMeasure)
	report.Smoke = &smokeSec
	if *baseline != "" {
		report.Baseline = pairArms(*baseline, old, report)
		fmt.Printf("\nbefore/after against %s:\n", *baseline)
		for _, a := range report.Baseline.Arms {
			fmt.Printf("%-6s %-44s %12.3f → %12.3f ms/op  (%.2fx)  %d → %d allocs/op\n",
				a.Section, a.Name, a.BeforeMs, a.AfterMs, a.Speedup, a.BeforeAllocs, a.AfterAllocs)
		}
	}
	writeReport(report, *out)
}

// runLoadArm drives the hot dashboard mix against addr (or an in-process
// fixture when addr is empty — dataset "bench" at the full suite size).
func runLoadArm(addr string, conc int, dur time.Duration, n, grid int) LoadReport {
	base := addr
	if base == "" {
		v := core.Prepare(benchwork.Dataset(n))
		srv := benchwork.StartServeFixture(map[string]*engine.Engine{"bench": engine.New(v)}, serve.Options{})
		defer srv.Close()
		base = srv.URL
	} else if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	mix := []benchwork.LoadRequest{
		{URL: base + "/rank", Body: benchwork.ServeRankBody("bench", 0.95, 10)},
		{URL: base + "/rank", Body: benchwork.ServeRankBody("bench", 0.5, 10)},
		{URL: base + "/rankbatch", Body: benchwork.ServeBatchBody("bench", grid)},
	}
	label := addr
	if label == "" {
		label = "in-process"
	}
	return LoadReport{
		Addr:        label,
		Concurrency: conc,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		HotMix:      benchwork.RunLoad(mix, conc, dur),
	}
}

func newReport(sec Section) Report {
	return Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Section:    sec,
	}
}

func writeReport(report Report, out string) {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println("\nspeedups:")
	keys := sortedKeys(report.Speedups)
	for _, k := range keys {
		fmt.Printf("  %-44s %.2fx\n", k, report.Speedups[k])
	}
	fmt.Println("\nwrote", out)
}

// ---------------------------------------------------------------------------
// -diff: the benchmark regression gate.
// ---------------------------------------------------------------------------

// pickSection prefers a report's smoke section (quick-measured, smoke
// sizes — directly comparable across reports) over its full-size body.
func pickSection(r Report) Section {
	if r.Smoke != nil {
		return *r.Smoke
	}
	return r.Section
}

func loadReport(path string) (Report, error) {
	var r Report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// runDiff compares the old report's section against the new one. Speedup
// ratios gate (warn beyond warnRatio, fail beyond failRatio); absolute
// timings warn only, and only when both sections ran the same sizes.
func runDiff(oldPath, newPath string, warnRatio, failRatio float64) error {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return err
	}
	oldSec, newSec := pickSection(oldRep), pickSection(newRep)
	sameSizes := oldSec.N == newSec.N && oldSec.GridPoints == newSec.GridPoints &&
		oldSec.ComboTerms == newSec.ComboTerms && oldSec.ChainN == newSec.ChainN
	// Only hard-compare like-for-like machine shapes: the parallel sweeps
	// and the single-flight storm scale with cores. Sections from before
	// the fields existed carry zeros and are treated as matching.
	sameProcs := (oldSec.GOMAXPROCS == 0 || newSec.GOMAXPROCS == 0 || oldSec.GOMAXPROCS == newSec.GOMAXPROCS) &&
		(oldSec.NumCPU == 0 || newSec.NumCPU == 0 || oldSec.NumCPU == newSec.NumCPU)

	fmt.Printf("bench diff: %s (n=%d) → %s (n=%d)\n\n", oldPath, oldSec.N, newPath, newSec.N)
	if !sameSizes {
		// Many speedups are asymptotic (the chain product-tree arm is
		// n³/n·log n), so comparing them across dataset sizes cannot gate
		// hard — everything demotes to warnings. The checked-in baseline
		// normally carries a smoke-sized section, making this path rare.
		fmt.Println("note: section sizes differ — speedup comparison is warn-only")
	}
	if !sameProcs {
		fmt.Printf("note: CPU shapes differ (GOMAXPROCS %d→%d, cores %d→%d) — speedup comparison is warn-only\n",
			oldSec.GOMAXPROCS, newSec.GOMAXPROCS, oldSec.NumCPU, newSec.NumCPU)
		sameSizes = false
	}
	failed := diffSpeedups(oldSec.Speedups, newSec.Speedups, sameSizes, warnRatio, failRatio)

	if sameSizes {
		oldByName := map[string]Result{}
		for _, r := range oldSec.Results {
			oldByName[r.Name] = r
		}
		fmt.Printf("\n%-46s %12s %12s %8s\n", "workload", "old ms/op", "new ms/op", "ratio")
		for _, nr := range newSec.Results {
			or, ok := oldByName[nr.Name]
			if !ok || or.NsPerOp <= 0 || nr.NsPerOp <= 0 {
				continue
			}
			ratio := nr.NsPerOp / or.NsPerOp
			fmt.Printf("%-46s %12.3f %12.3f %7.2fx\n", nr.Name, or.MsPerOp, nr.MsPerOp, ratio)
			if ratio > 3 {
				// Absolute timings vary with hardware, so this never fails the
				// gate — it only leaves an annotation trail.
				fmt.Printf("::warning::bench timing drift: %q %.3f → %.3f ms/op (%.1fx)\n",
					nr.Name, or.MsPerOp, nr.MsPerOp, ratio)
			}
		}
	} else {
		fmt.Printf("\n(timing comparison skipped: section sizes differ, n=%d vs n=%d)\n", oldSec.N, newSec.N)
	}

	if len(failed) > 0 {
		return fmt.Errorf("%d speedup(s) regressed beyond %gx: %s",
			len(failed), failRatio, strings.Join(failed, ", "))
	}
	fmt.Println("\nbench diff: no hard regressions")
	return nil
}

// diffSpeedups compares one speedup map against its baseline, printing a
// row per key and returning the keys that regressed beyond failRatio.
// gateHard=false (differing sizes or CPU shapes) demotes everything to
// warnings.
func diffSpeedups(oldS, newS map[string]float64, gateHard bool, warnRatio, failRatio float64) []string {
	fmt.Printf("%-46s %10s %10s %8s\n", "speedup", "old", "new", "status")
	var failed []string
	for _, key := range sortedKeys(oldS) {
		oldV := oldS[key]
		newV, ok := newS[key]
		if !ok {
			// A vanished key must not silently drop out of the gate: a
			// renamed or deleted arm is exactly the kind of rot to surface.
			fmt.Printf("::warning::bench gate: speedup %q (was %.2fx) is missing from the new report\n", key, oldV)
			fmt.Printf("%-46s %9.2fx %10s %8s\n", key, oldV, "—", "missing")
			continue
		}
		if oldV <= 0 || newV <= 0 {
			continue
		}
		// "overhead" keys are lower-is-better ratios; everything else is a
		// higher-is-better speedup.
		regression := oldV / newV
		if strings.Contains(key, "overhead") {
			regression = newV / oldV
		}
		status := "ok"
		switch {
		case regression > failRatio && gateHard:
			status = "FAIL"
			failed = append(failed, key)
			fmt.Printf("::error::bench regression: %q was %.2fx, now %.2fx (>%gx off)\n",
				key, oldV, newV, failRatio)
		case regression > warnRatio:
			status = "warn"
			fmt.Printf("::warning::bench drift: %q was %.2fx, now %.2fx\n", key, oldV, newV)
		}
		fmt.Printf("%-46s %9.2fx %9.2fx %8s\n", key, oldV, newV, status)
	}
	return failed
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
