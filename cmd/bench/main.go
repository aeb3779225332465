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
// The workload bodies are shared with the root bench_test.go suite via
// internal/benchwork, so the JSON records exactly what `go test -bench`
// measures:
//
//   - spectrum: PRFeLog at every point of an α grid (the Figure 11 kernel),
//     one-shot (rebuild + re-sort per query) vs prepared (sort once) vs
//     parallel batch;
//   - ranked-spectrum: the same sweep producing full rankings — one-shot vs
//     prepared (re-sort per α) vs parallel vs the kinetic sweep (sort once,
//     advance by Theorem 4 adjacent-pair crossings);
//   - crossing: the Theorem 4 crossing-point solver, incremental
//     Newton/secant vs the bisection reference, over mixed-span pairs;
//   - combo: an L-term PRFe linear combination (the Figure 8 kernel),
//     multi-pass (one scan per term) vs fused single-pass vs parallel-by-term
//     vs one-shot (prepare per call);
//   - correlated: PRFe, α sweeps and PRFe combinations on and/xor trees
//     (Syn-XOR x-tuples and Syn-HIGH deep correlation), the Section 9.3
//     Markov chain (product-tree prepared path vs the Θ(n³) partial-sum DP,
//     and a cold PT(h) on the truncated DP)
//     and the Section 9.4 junction tree (prepared vs one-shot);
//   - engine: the unified Ranker engine (PR 4). ONE generic sweep body runs
//     against all four backends through Engine.RankBatch dispatch; the
//     `engine * overhead` entries certify dispatch cost (≤ 5%);
//   - engine/cached: the PR 5 engine-level result cache on the
//     repeated-dashboard workload (a panel mix re-issued per refresh) —
//     cached refreshes must be ≥ 5x the uncached engine;
//   - serve: HTTP round trips through the internal/serve front end — the
//     uncached path, the engine-cache-only path, the full wire path
//     (encoded-byte cache, one Write per hot hit), the gzip-negotiated and
//     streamed variants, and a cold-storm pair measuring the single-flight
//     latch (wall time for N identical cold requests, latch on vs off);
//   - load: a vegeta-style closed-loop load generator (QPS, p50/p95/p99
//     latency, allocated bytes per request under -load-conc concurrent
//     clients for -load-dur) against the in-process fixture or -load-addr;
//   - sharded: the PT(h) ladder answered one depth at a time, the
//     log-domain PRFe kernel and the E-Rank prefix-sum kernel on the
//     independent view (arm names kept from earlier reports), plus the
//     Section 5.2 α-learning loop.
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
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/benchwork"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/store"
)

// Result is one measured benchmark case. GOMAXPROCS records the runtime
// cap the arm ran at.
type Result struct {
	Name       string  `json:"name"`
	Iters      int     `json:"iters"`
	NsPerOp    float64 `json:"ns_per_op"`
	MsPerOp    float64 `json:"ms_per_op"`
	AllocsOp   int64   `json:"allocs_per_op"`
	BytesOp    int64   `json:"bytes_per_op"`
	GOMAXPROCS int     `json:"gomaxprocs,omitempty"`
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
// section for the size-for-size regression gate.
type Report struct {
	GoVersion  string             `json:"go_version"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"num_cpu,omitempty"`
	N          int                `json:"dataset_size"`
	GridPoints int                `json:"spectrum_grid_points"`
	ComboTerms int                `json:"combo_terms"`
	ChainN     int                `json:"chain_length"`
	Results    []Result           `json:"results"`
	Speedups   map[string]float64 `json:"speedups"`
	Load       *LoadReport        `json:"load,omitempty"`
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
// report's order.
func pairArms(from string, old, cur Report) *Baseline {
	b := &Baseline{From: from}
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

// measureFunc turns one workload body into a measurement; nil means smoke
// mode (run once, no timing).
type measureFunc func(name string, op func()) Result

// fullMeasure is the stdlib benchmark harness (≈1 s per workload).
func fullMeasure(name string, op func()) Result {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			op()
		}
	})
	return Result{
		Name:     name,
		Iters:    r.N,
		NsPerOp:  float64(r.T.Nanoseconds()) / float64(r.N),
		MsPerOp:  float64(r.T.Nanoseconds()) / float64(r.N) / 1e6,
		AllocsOp: r.AllocsPerOp(),
		BytesOp:  r.AllocedBytesPerOp(),
	}
}

// quickMeasure is the short harness behind the smoke report: one warm-up
// run, then timed iterations until ~150 ms have elapsed. Coarser than
// fullMeasure but cheap enough to run the whole suite per CI job; the
// regression gate's tolerances account for the extra noise.
func quickMeasure(name string, op func()) Result {
	op() // warm-up, excluded
	const budget = 150 * time.Millisecond
	var iters int
	start := time.Now()
	for time.Since(start) < budget {
		op()
		iters++
	}
	ns := float64(time.Since(start).Nanoseconds()) / float64(iters)
	return Result{Name: name, Iters: iters, NsPerOp: ns, MsPerOp: ns / 1e6}
}

// runSuite builds every workload at the given sizes and measures (or, with
// a nil measure, just runs) each one.
func runSuite(n, grid, terms, chainN int, meas measureFunc) Section {
	sec := Section{N: n, GridPoints: grid, ComboTerms: terms, ChainN: chainN,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Speedups: map[string]float64{}}
	// add measures one arm and stamps the GOMAXPROCS it ran at.
	add := func(name string, op func()) Result {
		if meas == nil {
			op()
			fmt.Printf("%-44s ok\n", name)
			return Result{Name: name}
		}
		r := meas(name, op)
		r.GOMAXPROCS = runtime.GOMAXPROCS(0)
		sec.Results = append(sec.Results, r)
		fmt.Printf("%-44s %12.3f ms/op  (%d iters, %d allocs/op)\n",
			r.Name, r.MsPerOp, r.Iters, r.AllocsOp)
		return r
	}

	d := benchwork.Dataset(n)
	alphas, calphas := benchwork.Grid(grid)
	expTerms := benchwork.Terms(terms)
	v := core.Prepare(d)
	pairs := benchwork.CrossingPairs(n, 64)
	xorTree := benchwork.XTupleTree(n)
	deepTree := benchwork.DeepTree(n)
	chain := benchwork.MarkovChain(chainN)
	// The one-shot junction arm re-triangulates and re-runs the Θ(n³) DP per
	// grid point, so the generic-network sweep runs on a shorter chain and a
	// sub-grid to keep the suite's wall clock sane.
	netN := chainN / 2
	if netN < 2 {
		netN = 2
	}
	net := benchwork.ChainNetwork(benchwork.MarkovChain(netN))
	netGrid := grid / 2
	if netGrid < 1 {
		netGrid = 1
	}
	_, netCalphas := benchwork.Grid(netGrid)

	spOne := add("spectrum/oneshot", func() { benchwork.SpectrumOneShot(d, calphas) })
	spPrep := add("spectrum/prepared", func() { benchwork.SpectrumPrepared(d, calphas) })
	spPar := add("spectrum/parallel", func() { benchwork.SpectrumParallel(d, calphas) })

	rkOne := add("ranked-spectrum/oneshot", func() { benchwork.RankedOneShot(d, alphas) })
	rkPrep := add("ranked-spectrum/prepared", func() { benchwork.RankedPrepared(d, alphas) })
	rkPar := add("ranked-spectrum/parallel", func() { benchwork.RankedParallel(d, alphas) })
	rkKin := add("ranked-spectrum/kinetic", func() { benchwork.RankedKinetic(d, alphas) })

	crRef := add("crossing/reference", func() { benchwork.CrossingReference(v, pairs) })
	crInc := add("crossing/incremental", func() { benchwork.CrossingIncremental(v, pairs) })

	cbMulti := add("combo/multipass", func() { benchwork.ComboMultiPass(v, expTerms) })
	cbFused := add("combo/fused", func() { benchwork.ComboFused(v, expTerms) })
	cbPar := add("combo/parallel", func() { benchwork.ComboParallel(v, expTerms) })
	cbOne := add("combo/oneshot", func() { benchwork.ComboOneShot(d, expTerms) })

	add("correlated/andxor-xor-prfe", func() { benchwork.TreePRFe(xorTree) })
	add("correlated/andxor-high-prfe", func() { benchwork.TreePRFe(deepTree) })
	axSwOne := add("correlated/andxor-xor-sweep-oneshot", func() { benchwork.TreeSweepOneShot(xorTree, calphas) })
	axSwPrep := add("correlated/prepared/andxor-xor-sweep", func() { benchwork.TreeSweepPrepared(xorTree, calphas) })
	hiSwOne := add("correlated/andxor-high-sweep-oneshot", func() { benchwork.TreeSweepOneShot(deepTree, calphas) })
	hiSwPrep := add("correlated/prepared/andxor-high-sweep", func() { benchwork.TreeSweepPrepared(deepTree, calphas) })
	axCbOne := add("correlated/andxor-xor-combo", func() { benchwork.TreeCombo(xorTree, expTerms) })
	preparedXorTree := benchwork.PrepareTree(xorTree)
	axCbPrep := add("correlated/prepared/andxor-xor-combo", func() { benchwork.TreeComboPrepared(preparedXorTree, expTerms) })

	chDP := add("correlated/junction-chain-prfe-dp", func() { benchwork.ChainPRFeDP(chain) })
	chFast := add("correlated/junction-chain-prfe", func() { benchwork.ChainPRFe(chain) })
	chSweep := add("correlated/prepared/chain-sweep", func() { benchwork.ChainSweepPrepared(chain, calphas) })
	add("correlated/chain-pth-cold", func() { benchwork.ChainPThCold(chain, 10) })
	netOne := add("correlated/junction-network-sweep-oneshot", func() { benchwork.NetworkSweepOneShot(net, netCalphas) })
	netPrep := add("correlated/prepared/network-sweep", func() { benchwork.NetworkSweepPrepared(net, netCalphas) })

	// Unified-engine arms: one generic sweep body, four backends. The
	// independent arms pair engine dispatch against the direct prepared
	// calls; preparation is hoisted on both sides so the pairs measure
	// exactly the dispatch overhead.
	netAlphas := make([]float64, len(netCalphas))
	for i, ca := range netCalphas {
		netAlphas[i] = real(ca)
	}
	engIndep := benchwork.NewEngine(v)
	engTree := benchwork.NewEngine(preparedXorTree)
	engChain := benchwork.NewEngine(benchwork.PrepareChain(chain))
	engNet := benchwork.NewEngine(benchwork.PrepareNetwork(net))
	dirRank := add("engine/direct-rank-sweep", func() { benchwork.DirectRankSweep(v, alphas) })
	engRank := add("engine/rank-sweep", func() { benchwork.EngineRankSweep(engIndep, alphas) })
	dirTopK := add("engine/direct-topk-sweep", func() { benchwork.DirectTopKSweep(v, alphas, 10) })
	engTopK := add("engine/topk-sweep", func() { benchwork.EngineTopKSweep(engIndep, alphas, 10) })
	add("engine/tree-rank-sweep", func() { benchwork.EngineRankSweep(engTree, alphas) })
	add("engine/chain-rank-sweep", func() { benchwork.EngineRankSweep(engChain, alphas) })
	add("engine/network-rank-sweep", func() { benchwork.EngineRankSweep(engNet, netAlphas) })
	add("engine/tree-value-sweep", func() { benchwork.EngineValueSweep(engTree, alphas) })

	// Consensus-semantics arms (PR 8): the Global-Topk, Expected-Rank and
	// Median-Rank metrics promoted to first-class engine dispatch.
	add("semantics/globaltopk-ranking", func() {
		benchwork.EngineSemanticRanking(engIndep, engine.MetricGlobalTopk, 10)
	})
	add("semantics/expectedrank-ranking", func() {
		benchwork.EngineSemanticRanking(engIndep, engine.MetricExpectedRank, 10)
	})
	add("semantics/medianrank-ranking", func() {
		benchwork.EngineSemanticRanking(engIndep, engine.MetricMedianRank, 10)
	})

	// Engine-level cache arms (PR 5): one dashboard refresh = the panel mix
	// plus the ranked sweep. The cached engine is warmed before measurement
	// so ops measure steady-state hits (the realistic repeated-dashboard
	// regime); correctness of warm answers is certified in cache_test.go.
	dashQs := benchwork.DashboardQueries(10)
	dashSweep := benchwork.DashboardSweep(grid)
	cachedEng := benchwork.NewCachedEngine(engIndep, 0)
	benchwork.CachedDashboard(cachedEng, dashQs, dashSweep) // warm
	dashUn := add("engine/dashboard", func() { benchwork.EngineDashboard(engIndep, dashQs, dashSweep) })
	dashHot := add("engine/cached/dashboard", func() { benchwork.CachedDashboard(cachedEng, dashQs, dashSweep) })

	// Independent-view kernel arms: the PT(h) ladder answered one depth at
	// a time, the log-domain PRFe kernel, the E-Rank prefix-sum kernel and
	// the Section 5.2 α-learning loop. The arm names are kept so the
	// trajectory stays comparable with earlier reports.
	hs := benchwork.Ladder(10, 10)
	add("sharded/pth-ladder-perh", func() { benchwork.LadderPerH(v, hs) })
	add("sharded/prfelog-scalar", func() { benchwork.PRFeLogScalar(v, complex(0.95, 0)) })
	add("sharded/erank-scalar", func() { benchwork.ERankScalar(v) })
	learnUser := benchwork.LearnUserRanking(v)
	add("learn/alpha-fit", func() { benchwork.LearnAlphaWorkload(v, learnUser, 10, 3) })

	// Serving-layer arms: full HTTP round trips against the in-process
	// front end. Three cache configurations isolate the layers: no caches,
	// engine-level result cache only (a hit still re-encodes the body), and
	// the full wire path (byte cache: a hit is one Write of pre-encoded
	// bytes). Plus the gzip-negotiated and streamed variants of the sweep.
	serveEngines := func() map[string]*engine.Engine {
		return map[string]*engine.Engine{"bench": benchwork.NewEngine(v)}
	}
	uncachedSrv := benchwork.StartServeFixtureOpts(serveEngines(),
		serve.Options{CacheCapacity: -1, ByteCacheCapacity: -1})
	defer uncachedSrv.Close()
	engCacheSrv := benchwork.StartServeFixtureOpts(serveEngines(),
		serve.Options{CacheCapacity: 0, ByteCacheCapacity: -1})
	defer engCacheSrv.Close()
	cachedSrv := benchwork.StartServeFixture(serveEngines(), 0) // full wire path
	defer cachedSrv.Close()
	client := &http.Client{}
	rankBody := benchwork.ServeRankBody("bench", 0.95, 10)
	batchBody := benchwork.ServeBatchBody("bench", grid)
	streamBody := benchwork.ServeBatchStreamBody("bench", grid)
	for _, srv := range []string{engCacheSrv.URL, cachedSrv.URL} { // warm
		benchwork.ServeRoundTrip(client, srv+"/rank", rankBody)
		benchwork.ServeRoundTrip(client, srv+"/rankbatch", batchBody)
	}
	benchwork.ServeRoundTripGzip(client, cachedSrv.URL+"/rankbatch", batchBody) // warm the gzip variant
	srvUn := add("serve/rank-topk", func() { benchwork.ServeRoundTrip(client, uncachedSrv.URL+"/rank", rankBody) })
	srvHot := add("serve/cached/rank-topk", func() { benchwork.ServeRoundTrip(client, cachedSrv.URL+"/rank", rankBody) })
	srvBatchUn := add("serve/rankbatch-sweep", func() { benchwork.ServeRoundTrip(client, uncachedSrv.URL+"/rankbatch", batchBody) })
	srvBatchEng := add("serve/enginecache/rankbatch-sweep", func() { benchwork.ServeRoundTrip(client, engCacheSrv.URL+"/rankbatch", batchBody) })
	srvBatchHot := add("serve/cached/rankbatch-sweep", func() { benchwork.ServeRoundTrip(client, cachedSrv.URL+"/rankbatch", batchBody) })
	srvBatchGz := add("serve/cached/rankbatch-sweep-gzip", func() { benchwork.ServeRoundTripGzip(client, cachedSrv.URL+"/rankbatch", batchBody) })
	add("serve/rankbatch-stream", func() { benchwork.ServeRoundTrip(client, uncachedSrv.URL+"/rankbatch", streamBody) })

	// Persistent-store arms (PR 10): the disk-backed segment path against
	// the CSV text path it replaces. Cold-open decodes a segment and fully
	// materializes the sorted view; the cold top-k arm answers through the
	// certified partial-materialization path, reading only a prefix.
	runStoreArms(n, add, sec.Speedups, meas != nil, "")

	// Cold-storm pair: wall time for rounds × conc identical never-seen
	// requests, wire-layer single-flight on vs off. Wall-time measured (not
	// ns/op): the latch's value is what N callers experience together. The
	// no-latch fixture disables the whole byte layer (cache AND latch), not
	// just the latch: a byte cache without a latch still absorbs most of a
	// storm on a small machine by racy fill (whoever encodes first wins),
	// which would measure the race, not the layer. Each fixture still
	// evaluates once per round — the latch fixture through the wire-layer
	// flight, the no-latch one through the engine-level cache and flight a
	// dataset gets when its byte cache is off — so the ratio isolates the
	// wire layer: one encode+compress per round versus one per caller.
	stormConc, stormRounds := 32, 4
	if meas == nil || n <= 1000 {
		stormConc, stormRounds = 8, 2
	}
	stormLatch := benchwork.StartServeFixture(serveEngines(), 0)
	defer stormLatch.Close()
	stormNoLatch := benchwork.StartServeFixtureOpts(serveEngines(),
		serve.Options{CacheCapacity: 0, ByteCacheCapacity: -1, DisableSingleFlight: true})
	defer stormNoLatch.Close()
	stormBody := func(round int) []byte { return benchwork.ServeBatchStormBody("bench", grid, round) }
	latchTime := benchwork.ColdStorm(stormLatch.URL+"/rankbatch", stormConc, stormRounds, stormBody)
	noLatchTime := benchwork.ColdStorm(stormNoLatch.URL+"/rankbatch", stormConc, stormRounds, stormBody)
	fmt.Printf("%-44s %12.3f ms wall (%d×%d requests, latch on)\n",
		"serve/cold-storm/single-flight", float64(latchTime.Nanoseconds())/1e6, stormRounds, stormConc)
	fmt.Printf("%-44s %12.3f ms wall (%d×%d requests, latch off)\n",
		"serve/cold-storm/no-latch", float64(noLatchTime.Nanoseconds())/1e6, stormRounds, stormConc)

	if meas == nil {
		return sec
	}

	sec.Speedups["spectrum prepared vs oneshot"] = spOne.NsPerOp / spPrep.NsPerOp
	sec.Speedups["spectrum parallel vs oneshot"] = spOne.NsPerOp / spPar.NsPerOp
	sec.Speedups["ranked spectrum prepared vs oneshot"] = rkOne.NsPerOp / rkPrep.NsPerOp
	sec.Speedups["ranked spectrum parallel vs oneshot"] = rkOne.NsPerOp / rkPar.NsPerOp
	sec.Speedups["ranked spectrum kinetic vs oneshot"] = rkOne.NsPerOp / rkKin.NsPerOp
	sec.Speedups["ranked spectrum kinetic vs prepared"] = rkPrep.NsPerOp / rkKin.NsPerOp
	sec.Speedups["crossing incremental vs reference"] = crRef.NsPerOp / crInc.NsPerOp
	sec.Speedups["combo fused vs multipass"] = cbMulti.NsPerOp / cbFused.NsPerOp
	sec.Speedups["combo fused vs oneshot"] = cbOne.NsPerOp / cbFused.NsPerOp
	sec.Speedups["combo parallel vs multipass"] = cbMulti.NsPerOp / cbPar.NsPerOp
	sec.Speedups["andxor xor sweep prepared vs oneshot"] = axSwOne.NsPerOp / axSwPrep.NsPerOp
	sec.Speedups["andxor high sweep prepared vs oneshot"] = hiSwOne.NsPerOp / hiSwPrep.NsPerOp
	sec.Speedups["andxor combo prepared vs oneshot"] = axCbOne.NsPerOp / axCbPrep.NsPerOp
	sec.Speedups["chain prfe product-tree vs DP"] = chDP.NsPerOp / chFast.NsPerOp
	sec.Speedups["chain sweep prepared vs per-query DP"] =
		chDP.NsPerOp * float64(grid) / chSweep.NsPerOp
	sec.Speedups["network sweep prepared vs oneshot"] = netOne.NsPerOp / netPrep.NsPerOp
	// Dispatch-overhead ratios (engine time / direct time): the api_redesign
	// acceptance criterion is ≤ 1.05 on the ranked and top-k α-sweep pairs.
	sec.Speedups["engine rank sweep overhead (engine/direct)"] = engRank.NsPerOp / dirRank.NsPerOp
	sec.Speedups["engine topk sweep overhead (engine/direct)"] = engTopK.NsPerOp / dirTopK.NsPerOp
	// Cache and serving headlines (PR 5): the ci acceptance criterion is
	// ≥ 5x on the cached dashboard.
	sec.Speedups["engine cached dashboard vs uncached"] = dashUn.NsPerOp / dashHot.NsPerOp
	sec.Speedups["serve cached rank vs uncached"] = srvUn.NsPerOp / srvHot.NsPerOp
	sec.Speedups["serve cached sweep vs uncached"] = srvBatchUn.NsPerOp / srvBatchHot.NsPerOp
	// Wire-path headlines (PR 6): the perf_opt acceptance criteria are a
	// ≥ 5x hot cached HTTP sweep vs the BENCH_5 serve/cached arm (the byte
	// cache skips the re-encode the engine cache still pays) and a ≥ 3x
	// single-flight win on the cold storm.
	sec.Speedups["serve byte-cache sweep vs engine-cache"] = srvBatchEng.NsPerOp / srvBatchHot.NsPerOp
	sec.Speedups["serve cached gzip sweep vs uncached"] = srvBatchUn.NsPerOp / srvBatchGz.NsPerOp
	if n > 1000 {
		// At smoke sizes a cold evaluation is cheaper than an HTTP round
		// trip, so the storm ratio is connection noise — recording it
		// would hand the regression gate a coin flip. Full sizes only.
		sec.Speedups["serve cold-storm single-flight vs no-latch"] =
			float64(noLatchTime.Nanoseconds()) / float64(latchTime.Nanoseconds())
	}
	return sec
}

// runStoreArms registers the persistent-store workloads at size n: the CSV
// parse+prepare baseline (the path every load took before the store), the
// segment cold open (header + checksum-verified section reads + FromSorted,
// no text parsing, no sort), and the cold certified top-k (partial
// materialization: only a score-order prefix is read, the tail is bounded
// away). Speedup keys get keySuffix appended so the -store-n trajectory can
// coexist with the in-suite arms.
func runStoreArms(n int, add func(name string, op func()) Result,
	speedups map[string]float64, measured bool, keySuffix string) {
	d := benchwork.Dataset(n)
	var csv bytes.Buffer
	for _, t := range d.Tuples() {
		fmt.Fprintf(&csv, "%v,%v\n", t.Score, t.Prob)
	}
	ds, err := store.Parse(store.KindIndependent, bytes.NewReader(csv.Bytes()))
	if err != nil {
		panic(err) // fixture invariant: datagen output always parses
	}
	dir, err := os.MkdirTemp("", "prfbench-store-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		panic(err)
	}
	if _, err := st.Import("bench", ds); err != nil {
		panic(err)
	}
	ctx := context.Background()

	csvArm := add("store/csv-parse-prepare", func() {
		ds2, err := store.Parse(store.KindIndependent, bytes.NewReader(csv.Bytes()))
		if err != nil {
			panic(err)
		}
		if _, err := ds2.Engine(); err != nil {
			panic(err)
		}
	})
	coldArm := add("store/cold-open", func() {
		h, err := st.OpenHandle("bench")
		if err != nil {
			panic(err)
		}
		// Materialize owns and closes the handle.
		if _, err := store.NewLazy(h).Materialize(ctx); err != nil {
			panic(err)
		}
	})
	var readFraction float64 // file size over bytes read, from the last run
	topkArm := add("store/topk-cold-partial", func() {
		h, err := st.OpenHandle("bench")
		if err != nil {
			panic(err)
		}
		lz := store.NewLazy(h)
		if _, err := lz.QueryTopKPRFeBatch(ctx, []float64{0.95}, 10); err != nil {
			panic(err)
		}
		if br := lz.BytesRead(); br > 0 {
			readFraction = float64(h.SizeBytes()) / float64(br)
		}
		_ = h.Close() // already closed if the query fell back to a full load
	})
	if !measured {
		return
	}
	speedups["store cold-open vs csv parse+prepare"+keySuffix] = csvArm.NsPerOp / coldArm.NsPerOp
	speedups["store cold topk vs cold full open"+keySuffix] = coldArm.NsPerOp / topkArm.NsPerOp
	// o(n) evidence for the partial path: how many times over the top-k
	// query could have re-read the file with the bytes it did not touch.
	// ~1 when the dataset is too small for partial eligibility (the query
	// falls back to a full load), large when only a prefix was needed.
	speedups["store cold topk file bytes over bytes read"+keySuffix] = readFraction
}

func main() {
	var (
		out       = flag.String("out", "", "output JSON path (required for a full run; in -smoke mode: no file unless set)")
		n         = flag.Int("n", 10000, "dataset size")
		grid      = flag.Int("grid", 16, "α grid points for the spectrum sweeps")
		terms     = flag.Int("terms", 20, "terms in the PRFe combination")
		chainN    = flag.Int("chain", 200, "Markov-chain length (the DP arm is cubic: keep small)")
		smoke     = flag.Bool("smoke", false, "run every workload once at tiny sizes (with -out: quick-measure and write a report)")
		diff      = flag.Bool("diff", false, "compare two reports: bench -diff OLD.json NEW.json")
		warnRatio = flag.Float64("warn-ratio", 1.5, "-diff: annotate speedup regressions beyond this ratio")
		failRatio = flag.Float64("fail-ratio", 5, "-diff: exit non-zero on speedup regressions beyond this ratio")
		loadConc  = flag.Int("load-conc", 32, "load arm: concurrent clients")
		loadDur   = flag.Duration("load-dur", 2*time.Second, "load arm: run duration (0 disables the load arm)")
		loadAddr  = flag.String("load-addr", "", "load arm: external server base URL (default: in-process fixture)")
		storeN    = flag.Int("store-n", 100000, "persistent-store trajectory: dataset size for the cold-open arms (0 disables)")
		baseline  = flag.String("baseline", "", "full run: an earlier report measured on this host (e.g. of the parent commit); every shared full-size and store arm is recorded as a before/after pair")
	)
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

	const smokeN, smokeGrid, smokeTerms, smokeChain = 400, 4, 6, 32

	if *smoke {
		if *out == "" {
			runSuite(smokeN, smokeGrid, smokeTerms, smokeChain, nil)
			fmt.Println("\nsmoke ok: all workloads ran")
			return
		}
		sec := runSuite(smokeN, smokeGrid, smokeTerms, smokeChain, quickMeasure)
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
	sec := runSuite(*n, *grid, *terms, *chainN, fullMeasure)
	report := newReport(sec)
	if *storeN > 0 {
		fmt.Printf("\npersistent-store trajectory at n=%d…\n", *storeN)
		ssec := Section{N: *storeN, GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU: runtime.NumCPU(), Speedups: map[string]float64{}}
		add := func(name string, op func()) Result {
			r := fullMeasure(name, op)
			r.GOMAXPROCS = runtime.GOMAXPROCS(0)
			ssec.Results = append(ssec.Results, r)
			fmt.Printf("%-44s %12.3f ms/op  (%d iters, %d allocs/op)\n",
				r.Name, r.MsPerOp, r.Iters, r.AllocsOp)
			return r
		}
		runStoreArms(*storeN, add, ssec.Speedups, true, fmt.Sprintf("@%d", *storeN))
		for k, v := range ssec.Speedups {
			report.Speedups[k] = v
		}
		report.Store = &ssec
	}
	if *loadDur > 0 {
		fmt.Printf("\nload arm: %d clients for %v…\n", *loadConc, *loadDur)
		lr := runLoadArm(*loadAddr, *loadConc, *loadDur, *n, *grid)
		report.Load = &lr
		fmt.Printf("%-44s %10.0f qps  p50 %.3f ms  p95 %.3f ms  p99 %.3f ms  %d B/req (%d reqs, %d errors)\n",
			"load/hot-mix", lr.HotMix.QPS, lr.HotMix.P50MS, lr.HotMix.P95MS, lr.HotMix.P99MS,
			int64(lr.HotMix.AllocPerReq), lr.HotMix.Requests, lr.HotMix.Errors)
	}
	fmt.Println("\nquick-measuring the smoke-size section for the regression gate…")
	smokeSec := runSuite(smokeN, smokeGrid, smokeTerms, smokeChain, quickMeasure)
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
		srv := benchwork.StartServeFixture(map[string]*engine.Engine{"bench": benchwork.NewEngine(v)}, 0)
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
		N:          sec.N,
		GridPoints: sec.GridPoints,
		ComboTerms: sec.ComboTerms,
		ChainN:     sec.ChainN,
		Results:    sec.Results,
		Speedups:   sec.Speedups,
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
	return Section{N: r.N, GridPoints: r.GridPoints, ComboTerms: r.ComboTerms,
		ChainN: r.ChainN, Results: r.Results, Speedups: r.Speedups}
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
