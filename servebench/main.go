// Command servebench is the repository's end-to-end serving benchmark. It
// generates seeded dataset files, ingests them through the dataset store
// into an in-process serve.Server behind a loopback listener, and drives
// one workload from one client connection, closed loop, for --seconds.
// Every answer is checked against the direct engine path.
//
//	go run . --workload dashboard-hot --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 splits the time into an untraced half (runtime counters and
// the baseline for tracing overhead) and a traced half that times each
// layer's public entry points from outside, and reports per-layer metrics.
// Human-readable detail goes to stdout as '#' lines; the last line is one
// JSON object {correct, attempted, failed, metrics}.
//
// Work files live in a temporary directory under .bench_build in the
// current directory and are removed on exit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/store"
)

// setupReps is how many full ingests set-up makes; setup_s is their median.
const setupReps = 7

var workloads = []string{"dashboard-hot", "explore-cold", "refresh-mixed"}

type config struct {
	workload string
	seed     int64
	measure  time.Duration
	trace    bool
	sizes    sizes
	reps     int
	workDir  string // parent of the temporary directory
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// The whole process, client and server, runs on one P. On the shared
// 2-vCPU host the second vCPU's speed depends on other tenants, and with
// two Ps every request hands off between threads; with one, the tail of
// hot reads moved about half as much from run to run (p95 IQR/median 0.08
// against 0.15 over 8 runs each) at the same median.
const procs = 1

func main() {
	runtime.GOMAXPROCS(procs)
	workload := flag.String("workload", "", "one of dashboard-hot, explore-cold, refresh-mixed")
	seed := flag.Int64("seed", 1, "seed for inputs and request order")
	seconds := flag.Float64("seconds", 20, "measured time per run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	cfg := config{
		workload: *workload,
		seed:     *seed,
		measure:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		sizes:    fullSizes,
		reps:     setupReps,
		workDir:  ".bench_build",
	}
	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func run(cfg config, out io.Writer) (*report, error) {
	if !slices.Contains(workloads, cfg.workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "servebench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	files := genInputs(cfg.seed, cfg.sizes)
	if err := writeInputs(dir, files); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# servebench workload=%s seed=%d seconds=%.0f trace=%v GOMAXPROCS=%d NumCPU=%d %s\n",
		cfg.workload, cfg.seed, cfg.measure.Seconds(), cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	rep := &report{Metrics: map[string]metric{}}
	if !cfg.trace {
		return rep, endToEnd(cfg, dir, files, rep, out)
	}
	return rep, perLayer(cfg, dir, files, rep, out)
}

// setup ingests the inputs cfg.reps times, each into a fresh store and
// server, and keeps the last; the others are closed.
func setup(cfg config, dir, tag string, files []inputFile, tr *tracer, clock *hostClock) (*harness, []float64, error) {
	var h *harness
	var secs []float64
	for i := 0; i < max(cfg.reps, 1); i++ {
		if h != nil {
			h.close()
		}
		clock.sample()
		start := time.Now()
		var err error
		h, err = ingest(filepath.Join(dir, fmt.Sprintf("store-%s%d", tag, i)), files, tr)
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	h.clock = clock
	return h, secs, nil
}

// measure runs the configured workload on h for d.
func measure(cfg config, h *harness, files []inputFile, d time.Duration) (*window, error) {
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5e7e))
	switch cfg.workload {
	case "explore-cold":
		return coldRun(h, files, rng, d, cfg.sizes.consensus)
	default:
		return panelRun(h, files, rng, d, cfg.workload == "refresh-mixed")
	}
}

// summary is what every phase reports from its reads.
type summary struct {
	p50, p95, rps float64
}

// summarize prints the per-class counts, histogram and percentile classes,
// checks the workload's validity condition, and returns the read figures.
func summarize(cfg config, w *window, rep *report, out io.Writer) summary {
	sorted := append([]sample(nil), w.reads...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ms < sorted[j].ms })
	printHistogram(out, sorted)
	p50, c50, pure50 := percentileClass(sorted, 0.50)
	p95, c95, pure95 := percentileClass(sorted, 0.95)
	fmt.Fprintf(out, "# p50 %.4f ms in cost class %s (purity %.2f), p95 %.4f ms in cost class %s (purity %.2f)\n", p50, c50, pure50, p95, c95, pure95)
	if cfg.workload == "dashboard-hot" {
		ratio := hitRatio(w.cache.byteHits, w.cache.byteMisses)
		fmt.Fprintf(out, "# byte-cache hit ratio in the timed phase: %.4f\n", ratio)
		if ratio < 0.99 {
			w.problem("dashboard-hot: byte-cache hit ratio %.4f < 0.99", ratio)
			w.failed++
		}
	}
	if len(w.refreshMS) > 0 {
		fmt.Fprintf(out, "# refreshes: %d, each bumped both generations\n", len(w.refreshMS))
	}
	rep.Attempted += w.attempted
	rep.Failed += w.failed
	fmt.Fprintf(out, "# attempted %d failed %d error_rate %.6f\n", w.attempted, w.failed, float64(w.failed)/float64(max(w.attempted, 1)))
	for _, p := range w.problems {
		fmt.Fprintln(out, "# problem:", p)
	}
	return summary{p50: p50, p95: p95, rps: float64(w.ops) / w.elapsed.Seconds()}
}

func hitRatio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// liveHeapMB drops the window's sample buffers and reports the heap still
// in use: two collections, so sync.Pool victim caches are empty too.
func liveHeapMB(w *window) float64 {
	w.reads, w.transport, w.self = nil, nil, nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func endToEnd(cfg config, dir string, files []inputFile, rep *report, out io.Writer) error {
	clock := newHostClock()
	h, setupSecs, err := setup(cfg, dir, "", files, nil, clock)
	if err != nil {
		return err
	}
	defer h.close()
	fmt.Fprintf(out, "# setup_s samples: %v\n", setupSecs)
	w, err := measure(cfg, h, files, cfg.measure)
	if err != nil {
		return err
	}
	s := summarize(cfg, w, rep, out)
	raw := map[string]float64{
		"setup_s":        median(setupSecs),
		"throughput_rps": s.rps,
		"p50_ms":         s.p50,
		"p95_ms":         s.p95,
		"cpu_ms_per_req": msOf(w.cpu) / float64(max(w.ops, 1)),
	}
	for _, c := range []string{"rank", "sweep", "corr", "consensus"} {
		raw[c+"_p50_ms"] = classP50(w.reads, c)
	}
	// Times are reported at the host's nominal speed (see hostclock.go).
	f := clock.factor()
	fmt.Fprintf(out, "# host reference: median %.4f ms over %d samples, nominal %.1f ms, factor %.4f\n",
		refNominalMS/f, len(clock.samples), refNominalMS, f)
	m := rep.Metrics
	for _, name := range slices.Sorted(maps.Keys(raw)) {
		v := raw[name]
		unit, scaled := "ms", v*f
		switch name {
		case "setup_s":
			unit = "s"
		case "throughput_rps":
			unit, scaled = "1/s", v/f
		}
		fmt.Fprintf(out, "# raw %s %.6g %s\n", name, v, unit)
		m[name] = metric{scaled, unit}
	}
	m["live_heap_mb"] = metric{liveHeapMB(w), "MB"}
	rep.Correct = rep.Failed == 0
	return nil
}

func perLayer(cfg config, dir string, files []inputFile, rep *report, out io.Writer) error {
	m := rep.Metrics
	half := cfg.measure / 2

	// Untraced half: runtime counters, the workload-specific latencies and
	// the baseline the traced half is compared with.
	cfg1 := cfg
	cfg1.reps = 1
	clock := newHostClock()
	h, _, err := setup(cfg1, dir, "untraced-", files, nil, clock)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "# untraced half")
	w, err := measure(cfg, h, files, half)
	h.close()
	if err != nil {
		return err
	}
	base := summarize(cfg, w, rep, out)
	ops := float64(max(w.ops, 1))
	m["runtime.alloc_bytes_per_req"] = metric{float64(w.mem1.TotalAlloc-w.mem0.TotalAlloc) / ops, "bytes"}
	m["runtime.mallocs_per_req"] = metric{float64(w.mem1.Mallocs-w.mem0.Mallocs) / ops, "count"}
	m["runtime.gc_cycles"] = metric{float64(w.mem1.NumGC - w.mem0.NumGC), "count"}
	m["runtime.gc_pause_ms"] = metric{float64(w.mem1.PauseTotalNs-w.mem0.PauseTotalNs) / 1e6, "ms"}
	m["stream_p50_ms"] = metric{classP50(w.reads, "stream"), "ms"}
	m["refresh_p50_ms"] = metric{median(w.refreshMS), "ms"}
	m["rewarm_ms"] = metric{median(w.rewarmMS), "ms"}

	// Traced half.
	tr := newTracer()
	h, _, err = setup(cfg1, dir, "traced-", files, tr, clock)
	if err != nil {
		return err
	}
	defer h.close()
	for k, v := range h.steps {
		m[k] = metric{v, "ms"}
	}
	if err := lazyProbe(h, m); err != nil {
		return err
	}
	fmt.Fprintln(out, "# traced half")
	w, err = measure(cfg, h, files, half)
	if err != nil {
		return err
	}
	traced := summarize(cfg, w, rep, out)
	reads := float64(max(len(w.reads), 1))
	m["transport.ms"] = metric{median(w.transport), "ms"}
	m["serve.self_ms"] = metric{median(w.self), "ms"}
	m["serve.bytecache_hit_ratio"] = metric{hitRatio(w.cache.byteHits, w.cache.byteMisses), "ratio"}
	m["serve.flight_shared"] = metric{float64(w.cache.shared), "count"}
	m["serve.resp_bytes"] = metric{float64(w.respBytes) / reads, "bytes"}
	m["serve.admin_ms"] = metric{median(w.adminMS), "ms"}
	m["engine.cache_hit_ratio"] = metric{hitRatio(w.cache.engHits, w.cache.engMisses), "ratio"}
	m["engine.ranker_calls_per_req"] = metric{float64(w.calls) / reads, "count"}
	var busy float64
	for _, b := range backends {
		m[b+".busy_ms"] = metric{w.busySum[b] / reads, "ms"}
		busy += w.busySum[b]
	}
	p50s := tr.methodP50()
	for _, k := range tracedMethods {
		m[k+".p50_ms"] = metric{p50s[k], "ms"}
	}
	// The layers must add up to the client's wall time per read.
	sum := w.transportSum + w.selfSum + busy
	gap := 0.0
	if w.wallSum > 0 {
		gap = 100 * (sum - w.wallSum) / w.wallSum
	}
	m["trace.sum_gap_pct"] = metric{gap, "%"}
	m["trace.overhead_p50_pct"] = metric{100 * (traced.p50/base.p50 - 1), "%"}
	m["trace.overhead_rps_pct"] = metric{100 * (1 - traced.rps/base.rps), "%"}
	fmt.Fprintf(out, "# layers per read (means): wall %.4f = transport %.4f + serve.self %.4f + busy %.4f ms (gap %.3f%%)\n",
		w.wallSum/reads, w.transportSum/reads, w.selfSum/reads, busy/reads, gap)
	if math.Abs(gap) > 1 {
		fmt.Fprintf(out, "# problem: layer times miss the wall time by %.3f%% (tolerance 1%%)\n", gap)
		rep.Failed++
	}
	rep.Correct = rep.Failed == 0
	return nil
}

// tracedMethods are the backend methods whose median call time the traced
// run reports; they are the kernels the workloads reach.
var tracedMethods = []string{
	"lazy.QueryRankPRFe", "lazy.QueryTopKPRFeBatch", "lazy.QueryMedianRank",
	"lazy.QueryExpectedRank", "lazy.QueryPTh",
	"andxor.QueryRankPRFe", "andxor.QueryTopKPRFeBatch",
	"junction.QueryRankPRFe", "junction.QueryTopKPRFeBatch", "junction.QueryPTh",
}

// lazyProbe opens the big table's segment directly, answers the set-up
// query from its score prefix, and then materializes it: the bytes the
// prefix read and the time a full materialization takes.
func lazyProbe(h *harness, m map[string]metric) error {
	e, _, err := h.st.OpenEngine(dsBig)
	if err != nil {
		return err
	}
	lazy, ok := e.Ranker().(*store.LazyPrepared)
	if !ok {
		return fmt.Errorf("%s did not open as a lazy view", dsBig)
	}
	ctx := context.Background()
	if _, err := lazy.QueryTopKPRFeBatch(ctx, []float64{0.9}, 10); err != nil {
		return err
	}
	m["store.lazy.bytes_read"] = metric{float64(lazy.BytesRead()), "bytes"}
	start := time.Now()
	if _, err := lazy.Materialize(ctx); err != nil {
		return err
	}
	m["store.lazy.materialize_ms"] = metric{msOf(time.Since(start)), "ms"}
	return nil
}
