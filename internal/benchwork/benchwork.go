// Package benchwork is the one list of the repeated-query benchmark suite.
// New builds every workload's fixtures at a Config and returns the arms in
// report order, each a name and a one-operation body ("op" in ns/op
// terms), together with the ratio table that derives the suite's speedup
// keys from the arms' timings. NewStore returns the persistent-store arms
// alone, for the separate store section at a larger size.
//
// cmd/bench measures these arms into BENCH_N.json and the root package's
// BenchmarkSuite runs the same arms under `go test -bench`, so an arm
// renamed or dropped changes both at once; testdata/suite.golden pins the
// names and keys so such a change shows up as a reviewed diff.
package benchwork

//lint:file-allow ctxflow benchmark drivers are context roots: the bench run owns its lifetime and has no caller to receive a deadline from
//lint:file-allow errdiscipline bench fixtures fail fast: a broken fixture must abort the run rather than record a bogus measurement

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"time"

	"repro/internal/andxor"
	"repro/internal/core"
	"repro/internal/coreref"
	"repro/internal/datagen"
	"repro/internal/dftapprox"
	"repro/internal/engine"
	"repro/internal/junction"
	"repro/internal/learn"
	"repro/internal/pdb"
	"repro/internal/serve"
	"repro/internal/store"
)

// Config sizes one run of the suite.
type Config struct {
	N      int // dataset size
	Grid   int // α grid points of the spectrum sweeps
	Terms  int // terms in the PRFe combination
	ChainN int // Markov-chain length (the DP arm is cubic: keep small)
	// StoreN sizes the separate store section (NewStore) of a full run;
	// 0 runs none.
	StoreN int
}

var (
	// Full is the measured run recorded in BENCH_N.json.
	Full = Config{N: 10000, Grid: 16, Terms: 20, ChainN: 200, StoreN: 100000}
	// Smoke runs every arm at tiny sizes: the CI smoke and the
	// quick-measured section the regression gate compares.
	Smoke = Config{N: 400, Grid: 4, Terms: 6, ChainN: 32}
)

// Arm is one measured workload: Op performs one operation.
type Arm struct {
	Name string
	Op   func()
}

// Ratio derives the speedup Key as Scale · ns/op(Num) / ns/op(Den).
type Ratio struct {
	Key      string
	Num, Den string
	Scale    float64
}

// Suite is an ordered arm list with its ratio table and the fixtures the
// arms run against; Close releases the fixtures.
type Suite struct {
	Arms   []Arm
	Ratios []Ratio
	// gauges are speedup keys read from a workload after its last run
	// rather than derived from two timings.
	gauges  map[string]func() float64
	closers []func()
	// view and grid are what ColdStorm serves.
	view *core.Prepared
	grid int
}

func (s *Suite) arm(name string, op func()) { s.Arms = append(s.Arms, Arm{name, op}) }

func (s *Suite) ratio(key, num, den string) { s.Ratios = append(s.Ratios, Ratio{key, num, den, 1}) }

// Speedups applies the ratio table to measured ns/op by arm name and adds
// the gauges.
func (s *Suite) Speedups(nsPerOp map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, r := range s.Ratios {
		out[r.Key] = r.Scale * nsPerOp[r.Num] / nsPerOp[r.Den]
	}
	for k, g := range s.gauges {
		out[k] = g()
	}
	return out
}

// Close releases the suite's servers and temporary store.
func (s *Suite) Close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// datasetSeed fixes the workload dataset so runs are comparable across PRs.
const datasetSeed = 31

// Dataset returns the standard workload dataset: IIP-like, unsorted — what
// a fresh query workload sees before any preparation.
func Dataset(n int) *pdb.Dataset { return datagen.IIPLike(n, datasetSeed) }

// spectrumN sizes the exact spectrum enumeration: every crossing event of
// the kinetic sweep is popped, so the dataset stays small at every preset.
const spectrumN = 300

// New builds the suite at cfg: the independent-data kernels, the
// correlated backends, the unified engine, the engine cache, the serving
// layer and the store arms, in report order.
func New(cfg Config) *Suite {
	s := &Suite{gauges: map[string]func() float64{}, grid: cfg.Grid}
	ctx := context.Background()
	d := Dataset(cfg.N)
	alphas, calphas := grid(cfg.Grid)
	terms := comboTerms(cfg.Terms)
	v := core.Prepare(d)
	s.view = v

	// Spectrum sweeps (the Figure 11 kernel at every α of a grid): one-shot
	// rebuilds and re-sorts a view per query, prepared sorts once, parallel
	// fans the grid out. The ranked variants produce a full ranking per α;
	// the kinetic sweep sorts once and advances by Theorem 4 crossings.
	s.arm("spectrum/oneshot", func() {
		for _, a := range calphas {
			core.PRFeLog(d, a)
		}
	})
	s.arm("spectrum/prepared", func() {
		v := core.Prepare(d)
		for _, a := range calphas {
			v.PRFeLog(a)
		}
	})
	s.arm("spectrum/parallel", func() { core.Prepare(d).PRFeLogBatch(calphas) })
	s.arm("ranked-spectrum/oneshot", func() {
		for _, a := range alphas {
			core.RankPRFe(d, a)
		}
	})
	s.arm("ranked-spectrum/prepared", func() {
		v := core.Prepare(d)
		for _, a := range alphas {
			v.RankPRFe(a)
		}
	})
	s.arm("ranked-spectrum/parallel", func() {
		// Descending, which the kinetic sweep does not accept, so the
		// dispatcher ranks every α independently in parallel.
		desc := make([]float64, len(alphas))
		for i, a := range alphas {
			desc[len(alphas)-1-i] = a
		}
		must(core.Prepare(d).QueryRankPRFeBatch(ctx, desc))
	})
	s.arm("ranked-spectrum/kinetic", func() { must(core.Prepare(d).RankPRFeSweep(ctx, alphas)) })

	// Theorem 4 crossing points over mixed-span pairs: the bisection
	// reference against the incremental Newton/secant solver.
	pairs := crossingPairs(cfg.N, 64)
	s.arm("crossing/reference", func() {
		for _, p := range pairs {
			coreref.CrossingPoint(v, p[0], p[1])
		}
	})
	s.arm("crossing/incremental", func() {
		for _, p := range pairs {
			v.CrossingPoint(p[0], p[1])
		}
	})

	// The exact spectrum size (every crossing event counted) against the
	// sampled count on a 64-point grid.
	sv := core.Prepare(Dataset(spectrumN))
	s.arm("spectrum-size/exact", func() { sv.SpectrumSize() })
	s.arm("spectrum-size/grid64", func() { sv.SpectrumSizeGrid(64) })

	// An L-term PRFe combination (the Figure 8 kernel): one scan per term,
	// fused single pass, and one-shot (prepare per call).
	s.arm("combo/multipass", func() { coreref.PRFeComboMultiPass(v, terms) })
	s.arm("combo/fused", func() { v.PRFeCombo(terms) })
	s.arm("combo/oneshot", func() { core.PRFeCombo(d, terms) })

	// Correlated data: and/xor trees (Syn-XOR x-tuples, Syn-HIGH deep
	// correlation) one-shot against prepared, the Section 9.3 Markov chain
	// (product tree against the Θ(n³) partial-sum DP, a cold PT(h) on the
	// truncated DP) and the Section 9.4 junction tree. The one-shot network
	// arm re-triangulates and re-runs the DP per α, so it runs on a shorter
	// chain and half the grid.
	xorTree := must(datagen.SynXOR(cfg.N, datasetSeed))
	deepTree := must(datagen.SynHIGH(cfg.N, datasetSeed))
	chain := markovChain(cfg.ChainN)
	net := must(markovChain(max(cfg.ChainN/2, 2)).Network())
	netAlphas, netCalphas := grid(max(cfg.Grid/2, 1))
	s.arm("correlated/andxor-xor-prfe", func() { andxor.PRFeValues(xorTree, complex(0.95, 0)) })
	s.arm("correlated/andxor-high-prfe", func() { andxor.PRFeValues(deepTree, complex(0.95, 0)) })
	for _, t := range []struct {
		name string
		tree *andxor.Tree
	}{{"xor", xorTree}, {"high", deepTree}} {
		s.arm("correlated/andxor-"+t.name+"-sweep-oneshot", func() {
			for _, a := range calphas {
				andxor.PRFeValues(t.tree, a)
			}
		})
		s.arm("correlated/prepared/andxor-"+t.name+"-sweep", func() {
			must(andxor.PrepareTree(t.tree).QueryPRFeBatch(ctx, calphas))
		})
	}
	preparedXorTree := andxor.PrepareTree(xorTree)
	s.arm("correlated/andxor-xor-combo", func() { treeCombo(andxor.PrepareTree(xorTree), terms) })
	s.arm("correlated/prepared/andxor-xor-combo", func() { treeCombo(preparedXorTree, terms) })
	s.arm("correlated/junction-chain-prfe-dp", func() { junction.PRFeChainDP(chain, complex(0.95, 0)) })
	s.arm("correlated/junction-chain-prfe", func() { junction.PRFeChain(chain, complex(0.95, 0)) })
	s.arm("correlated/prepared/chain-sweep", func() {
		must(junction.PrepareChain(chain).QueryPRFeBatch(ctx, calphas))
	})
	// The first PT(h) and E-Rank reads after a refresh: a fresh view per op,
	// so no state (no rank-distribution matrix) is cached to lean on.
	s.arm("correlated/chain-pth-cold", func() { must(junction.PrepareChain(chain).QueryPTh(ctx, 10)) })
	s.arm("correlated/chain-erank-cold", func() { must(junction.PrepareChain(chain).QueryERank(ctx)) })
	chainNet := must(chain.Network())
	s.arm("correlated/network-erank-cold", func() { must(must(junction.PrepareNetwork(chainNet)).QueryERank(ctx)) })
	s.arm("correlated/tree-erank", func() { must(preparedXorTree.QueryERank(ctx)) })
	s.arm("correlated/junction-network-sweep-oneshot", func() {
		for _, a := range netCalphas {
			must(junction.PRFe(net, a))
		}
	})
	s.arm("correlated/prepared/network-sweep", func() {
		must(must(junction.PrepareNetwork(net)).QueryPRFeBatch(ctx, netCalphas))
	})

	// The unified engine: one sweep body against all four backends, and the
	// independent pairs against the direct prepared-view calls, preparation
	// hoisted on both sides so the pairs measure exactly the dispatch.
	engIndep := engine.New(v)
	rankSweep := func(e *engine.Engine, alphas []float64) func() {
		q := engine.Query{Metric: engine.MetricPRFe, Alphas: alphas, Output: engine.OutputRanking}
		return func() { must(e.RankBatch(ctx, q)) }
	}
	s.arm("engine/direct-rank-sweep", func() { must(v.QueryRankPRFeBatch(ctx, alphas)) })
	s.arm("engine/rank-sweep", rankSweep(engIndep, alphas))
	s.arm("engine/direct-topk-sweep", func() { must(v.QueryTopKPRFeBatch(ctx, alphas, 10)) })
	topKSweep := engine.Query{Metric: engine.MetricPRFe, Alphas: alphas, Output: engine.OutputTopK, K: 10}
	s.arm("engine/topk-sweep", func() { must(engIndep.RankBatch(ctx, topKSweep)) })
	engTree := engine.New(preparedXorTree)
	s.arm("engine/tree-rank-sweep", rankSweep(engTree, alphas))
	s.arm("engine/chain-rank-sweep", rankSweep(engine.New(junction.PrepareChain(chain)), alphas))
	s.arm("engine/network-rank-sweep", rankSweep(engine.New(must(junction.PrepareNetwork(net))), netAlphas))
	treeValues := engine.Query{Metric: engine.MetricPRFe, Alphas: alphas, Output: engine.OutputValues}
	s.arm("engine/tree-value-sweep", func() { must(engTree.RankBatch(ctx, treeValues)) })

	// The consensus semantics through engine dispatch: one full ranking each.
	for _, m := range []struct {
		name string
		q    engine.Query
	}{
		{"globaltopk", engine.Query{Metric: engine.MetricGlobalTopk, K: 10, Output: engine.OutputRanking}},
		{"expectedrank", engine.Query{Metric: engine.MetricExpectedRank, Output: engine.OutputRanking}},
		{"medianrank", engine.Query{Metric: engine.MetricMedianRank, Output: engine.OutputRanking}},
	} {
		s.arm("semantics/"+m.name+"-ranking", func() { must(engIndep.Rank(ctx, m.q)) })
	}

	// The engine-level cache on a repeated dashboard: one op is one refresh
	// (the panel mix plus the ranked sweep). The cached engine is warmed
	// first, so ops measure steady-state hits.
	cachedDashboard := dashboard(engine.NewCached(engIndep, 0), 10, cfg.Grid)
	cachedDashboard() // warm
	s.arm("engine/dashboard", dashboard(engIndep, 10, cfg.Grid))
	s.arm("engine/cached/dashboard", cachedDashboard)

	// Independent-view kernels under their earlier-report names: the PT(h)
	// ladder {10, 20, …, 100} one depth at a time, the log-domain PRFe
	// kernel, the E-Rank prefix sum, and the Section 5.2 α-learning loop
	// recovering a PRFe(0.7) "user" ranking.
	s.arm("sharded/pth-ladder-perh", func() {
		for h := 10; h <= 100; h += 10 {
			v.PTh(h)
		}
	})
	s.arm("sharded/prfelog-scalar", func() { v.PRFeLog(complex(0.95, 0)) })
	s.arm("sharded/erank-scalar", func() { v.ERank() })
	user := v.RankPRFe(0.7)
	s.arm("learn/alpha-fit", func() { must(learn.LearnAlphaRanker(ctx, v, user, 10, 3)) })

	// HTTP round trips against the in-process front end in three cache
	// configurations: none, the engine-level result cache only (a hit still
	// re-encodes), and the full wire path (a byte-cache hit is one Write),
	// plus the gzip-negotiated and streamed sweeps.
	serveFixture := func(opts serve.Options) string {
		srv := StartServeFixture(map[string]*engine.Engine{"bench": engine.New(v)}, opts)
		s.closers = append(s.closers, srv.Close)
		return srv.URL
	}
	uncachedURL := serveFixture(serve.Options{CacheCapacity: -1, ByteCacheCapacity: -1})
	engCacheURL := serveFixture(serve.Options{CacheCapacity: 0, ByteCacheCapacity: -1})
	cachedURL := serveFixture(serve.Options{})
	client := &http.Client{}
	rankBody := ServeRankBody("bench", 0.95, 10)
	batchBody := ServeBatchBody("bench", cfg.Grid)
	streamBody := rankBatchBody("bench", alphas, true)
	for _, url := range []string{engCacheURL, cachedURL} { // warm
		roundTrip(client, url+"/rank", rankBody, "identity")
		roundTrip(client, url+"/rankbatch", batchBody, "identity")
	}
	roundTrip(client, cachedURL+"/rankbatch", batchBody, "gzip")
	post := func(url string, body []byte, encoding string) func() {
		return func() { roundTrip(client, url, body, encoding) }
	}
	s.arm("serve/rank-topk", post(uncachedURL+"/rank", rankBody, "identity"))
	s.arm("serve/cached/rank-topk", post(cachedURL+"/rank", rankBody, "identity"))
	s.arm("serve/rankbatch-sweep", post(uncachedURL+"/rankbatch", batchBody, "identity"))
	s.arm("serve/enginecache/rankbatch-sweep", post(engCacheURL+"/rankbatch", batchBody, "identity"))
	s.arm("serve/cached/rankbatch-sweep", post(cachedURL+"/rankbatch", batchBody, "identity"))
	s.arm("serve/cached/rankbatch-sweep-gzip", post(cachedURL+"/rankbatch", batchBody, "gzip"))
	s.arm("serve/rankbatch-stream", post(uncachedURL+"/rankbatch", streamBody, "identity"))

	s.add(NewStore(cfg.N))

	s.ratio("spectrum prepared vs oneshot", "spectrum/oneshot", "spectrum/prepared")
	s.ratio("spectrum parallel vs oneshot", "spectrum/oneshot", "spectrum/parallel")
	s.ratio("ranked spectrum prepared vs oneshot", "ranked-spectrum/oneshot", "ranked-spectrum/prepared")
	s.ratio("ranked spectrum parallel vs oneshot", "ranked-spectrum/oneshot", "ranked-spectrum/parallel")
	s.ratio("ranked spectrum kinetic vs oneshot", "ranked-spectrum/oneshot", "ranked-spectrum/kinetic")
	s.ratio("ranked spectrum kinetic vs prepared", "ranked-spectrum/prepared", "ranked-spectrum/kinetic")
	s.ratio("crossing incremental vs reference", "crossing/reference", "crossing/incremental")
	s.ratio("combo fused vs multipass", "combo/multipass", "combo/fused")
	s.ratio("combo fused vs oneshot", "combo/oneshot", "combo/fused")
	s.ratio("andxor xor sweep prepared vs oneshot", "correlated/andxor-xor-sweep-oneshot", "correlated/prepared/andxor-xor-sweep")
	s.ratio("andxor high sweep prepared vs oneshot", "correlated/andxor-high-sweep-oneshot", "correlated/prepared/andxor-high-sweep")
	s.ratio("andxor combo prepared vs oneshot", "correlated/andxor-xor-combo", "correlated/prepared/andxor-xor-combo")
	s.ratio("chain prfe product-tree vs DP", "correlated/junction-chain-prfe-dp", "correlated/junction-chain-prfe")
	// The DP arm answers one α; the sweep answers the whole grid.
	s.Ratios = append(s.Ratios, Ratio{"chain sweep prepared vs per-query DP",
		"correlated/junction-chain-prfe-dp", "correlated/prepared/chain-sweep", float64(cfg.Grid)})
	s.ratio("network sweep prepared vs oneshot", "correlated/junction-network-sweep-oneshot", "correlated/prepared/network-sweep")
	// Overhead keys are engine time over direct time: lower is better.
	s.ratio("engine rank sweep overhead (engine/direct)", "engine/rank-sweep", "engine/direct-rank-sweep")
	s.ratio("engine topk sweep overhead (engine/direct)", "engine/topk-sweep", "engine/direct-topk-sweep")
	s.ratio("engine cached dashboard vs uncached", "engine/dashboard", "engine/cached/dashboard")
	s.ratio("serve cached rank vs uncached", "serve/rank-topk", "serve/cached/rank-topk")
	s.ratio("serve cached sweep vs uncached", "serve/rankbatch-sweep", "serve/cached/rankbatch-sweep")
	s.ratio("serve byte-cache sweep vs engine-cache", "serve/enginecache/rankbatch-sweep", "serve/cached/rankbatch-sweep")
	s.ratio("serve cached gzip sweep vs uncached", "serve/rankbatch-sweep", "serve/cached/rankbatch-sweep-gzip")
	return s
}

// add appends another suite's arms, ratios, gauges and fixtures.
func (s *Suite) add(o *Suite) {
	s.Arms = append(s.Arms, o.Arms...)
	s.Ratios = append(s.Ratios, o.Ratios...)
	for k, g := range o.gauges {
		s.gauges[k] = g
	}
	s.closers = append(s.closers, o.closers...)
}

// NewStore builds the persistent-store arms at size n: the CSV
// parse+prepare baseline (the path every load took before the store), the
// admin import (the CSV streamed into a durable segment, what every POST
// /datasets/{name} pays), the segment cold open (checksum-verified section
// reads + FromSorted, no text parsing, no sort), and the cold certified
// top-k (only a score-order prefix is read, the tail is bounded away).
func NewStore(n int) *Suite {
	s := &Suite{gauges: map[string]func() float64{}}
	ctx := context.Background()
	// Scores in three decimals and probabilities in four, like the tables
	// the serving benchmark imports: the parser's exact-decimal path.
	var csv []byte
	for _, t := range Dataset(n).Tuples() {
		csv = strconv.AppendFloat(csv, t.Score, 'f', 3, 64)
		csv = append(csv, ',')
		csv = strconv.AppendFloat(csv, t.Prob, 'f', 4, 64)
		csv = append(csv, '\n')
	}
	dir := must(os.MkdirTemp("", "prfbench-store-"))
	s.closers = append(s.closers, func() { os.RemoveAll(dir) })
	st := must(store.Open(dir))
	must(st.Import("bench", must(store.Parse(store.KindIndependent, bytes.NewReader(csv)))))

	s.arm("store/csv-parse-prepare", func() {
		must(must(store.Parse(store.KindIndependent, bytes.NewReader(csv))).Engine())
	})
	s.arm("store/admin-import", func() {
		must(st.ImportCSV("bench-import", store.KindIndependent, bytes.NewReader(csv)))
	})
	s.arm("store/cold-open", func() {
		// Materialize owns and closes the handle.
		must(store.NewLazy(must(st.OpenHandle("bench"))).Materialize(ctx))
	})
	var readFraction float64 // file size over bytes read, from the last run
	s.arm("store/topk-cold-partial", func() {
		h := must(st.OpenHandle("bench"))
		lz := store.NewLazy(h)
		must(lz.QueryTopKPRFeBatch(ctx, []float64{0.95}, 10))
		if br := lz.BytesRead(); br > 0 {
			readFraction = float64(h.SizeBytes()) / float64(br)
		}
		_ = h.Close() // already closed if the query fell back to a full load
	})
	s.ratio("store cold-open vs csv parse+prepare", "store/csv-parse-prepare", "store/cold-open")
	s.ratio("store cold topk vs cold full open", "store/cold-open", "store/topk-cold-partial")
	// o(n) evidence for the partial path: how many times over the top-k
	// query could have re-read the file with the bytes it did not touch.
	// ~1 when the dataset is too small for partial eligibility (the query
	// falls back to a full load), large when only a prefix was needed.
	s.gauges["store cold topk file bytes over bytes read"] = func() float64 { return readFraction }
	return s
}

// ColdStorm times rounds × conc identical never-seen /rankbatch requests
// against two fresh fixtures over the suite's dataset, wire-layer
// single-flight on and off. The no-latch fixture disables the whole byte
// layer (cache and latch), not just the latch: a byte cache without a latch
// still absorbs most of a storm on a small machine by racy fill, which
// would measure the race, not the layer. Each fixture still evaluates once
// per round (the latch one through the wire-layer flight, the other through
// the engine-level cache and flight a dataset gets when its byte cache is
// off), so the ratio isolates the wire layer: one encode+compress per round
// against one per caller. It needs a suite built by New.
func (s *Suite) ColdStorm(conc, rounds int) (latch, noLatch time.Duration) {
	storm := func(opts serve.Options) time.Duration {
		srv := StartServeFixture(map[string]*engine.Engine{"bench": engine.New(s.view)}, opts)
		defer srv.Close()
		alphas, _ := grid(s.grid)
		return coldStorm(srv.URL+"/rankbatch", conc, rounds, func(round int) []byte {
			// Shift the grid far below its spacing but well above float64
			// rounding, so every round presents a key no cache has seen.
			shifted := make([]float64, len(alphas))
			for i, a := range alphas {
				shifted[i] = a + float64(round+1)*1e-9
			}
			return rankBatchBody("bench", shifted, false)
		})
	}
	latch = storm(serve.Options{})
	noLatch = storm(serve.Options{CacheCapacity: 0, ByteCacheCapacity: -1, DisableSingleFlight: true})
	return latch, noLatch
}

// grid returns the m-point α grid in (0, 1) used by the spectrum sweeps,
// in both real and complex form.
func grid(m int) ([]float64, []complex128) {
	alphas := make([]float64, m)
	calphas := make([]complex128, m)
	for i := range alphas {
		alphas[i] = float64(i+1) / float64(m+1)
		calphas[i] = complex(alphas[i], 0)
	}
	return alphas, calphas
}

// comboTerms returns the l-term DFT approximation of PT(1000) used by the
// combo workloads.
func comboTerms(l int) []core.ExpTerm {
	ts := dftapprox.TermsForRankWeights(
		dftapprox.Approximate(dftapprox.Step(1000), 1000, dftapprox.DefaultOptions(l)))
	out := make([]core.ExpTerm, len(ts))
	for i, t := range ts {
		out[i] = core.ExpTerm{U: t.U, Alpha: t.Alpha}
	}
	return out
}

// treeCombo evaluates an L-term PRFe combination on a prepared tree.
func treeCombo(pt *andxor.PreparedTree, terms []core.ExpTerm) {
	us := make([]complex128, len(terms))
	alphas := make([]complex128, len(terms))
	for i, term := range terms {
		us[i], alphas[i] = term.U, term.Alpha
	}
	must(pt.QueryPRFeCombo(context.Background(), us, alphas))
}

// crossingPairs returns a deterministic set of sorted-position pairs for
// the crossing-point workloads, spread across span lengths. Datasets too
// small to form a pair yield an empty set.
func crossingPairs(n, count int) [][2]int {
	if n < 2 {
		return nil
	}
	maxSpan := n / 4
	if maxSpan < 1 {
		maxSpan = 1
	}
	rng := rand.New(rand.NewSource(datasetSeed + 7))
	pairs := make([][2]int, 0, count)
	for len(pairs) < count {
		i := rng.Intn(n)
		j := i + 1 + rng.Intn(maxSpan)
		if j >= n {
			continue
		}
		pairs = append(pairs, [2]int{i, j})
	}
	return pairs
}

// markovChain builds the standard calibrated n-variable Markov-chain
// workload.
func markovChain(n int) *junction.Chain {
	return datagen.MarkovChainLike(n, datasetSeed+13)
}

// dashboard returns one refresh of a monitoring dashboard against e: PRFe
// top-k boards at two α, a full ranking, a PT(h) board and an
// expected-rank board, then the ranked spectrum panel over a monotone
// gridPoints-point α grid.
func dashboard(e interface {
	Rank(context.Context, engine.Query) (*engine.Result, error)
	RankBatch(context.Context, engine.Query) ([]engine.Result, error)
}, k, gridPoints int) func() {
	qs := []engine.Query{
		{Metric: engine.MetricPRFe, Alpha: 0.95, Output: engine.OutputTopK, K: k},
		{Metric: engine.MetricPRFe, Alpha: 0.5, Output: engine.OutputTopK, K: k},
		{Metric: engine.MetricPRFe, Alpha: 0.99, Output: engine.OutputRanking},
		{Metric: engine.MetricPTh, H: k, Output: engine.OutputRanking},
		{Metric: engine.MetricERank, Output: engine.OutputTopK, K: k},
	}
	alphas, _ := grid(gridPoints)
	sweep := engine.Query{Metric: engine.MetricPRFe, Alphas: alphas, Output: engine.OutputRanking}
	return func() {
		ctx := context.Background()
		for _, q := range qs {
			must(e.Rank(ctx, q))
		}
		must(e.RankBatch(ctx, sweep))
	}
}

// StartServeFixture starts an in-process HTTP server over the given
// engines. Callers must Close it.
func StartServeFixture(engines map[string]*engine.Engine, opts serve.Options) *httptest.Server {
	s := serve.New(opts)
	for name, e := range engines {
		if err := s.AddDataset(name, e); err != nil {
			panic(err)
		}
	}
	return httptest.NewServer(s)
}

// ServeRankBody marshals the /rank request for a PRFe top-k panel.
func ServeRankBody(dataset string, alpha float64, k int) []byte {
	return mustJSON(serve.RankRequest{Dataset: dataset, Query: serve.WireQuery{
		Metric: "prfe", Alpha: alpha, Output: "topk", K: k,
	}})
}

// ServeBatchBody marshals the /rankbatch request for a ranked sweep over
// the gridPoints-point α grid.
func ServeBatchBody(dataset string, gridPoints int) []byte {
	alphas, _ := grid(gridPoints)
	return rankBatchBody(dataset, alphas, false)
}

// rankBatchBody marshals a ranked PRFe /rankbatch request over alphas,
// streamed (chunked per grid point) when stream is set.
func rankBatchBody(dataset string, alphas []float64, stream bool) []byte {
	return mustJSON(serve.RankRequest{Dataset: dataset, Query: serve.WireQuery{
		Metric: "prfe", Alphas: alphas, Output: "ranking",
	}, Stream: stream})
}

func mustJSON(v any) []byte { return must(json.Marshal(v)) }

// must panics on a fixture or workload error: a benchmark must not
// silently measure an error path.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// roundTrip posts one request body with the given Accept-Encoding and
// drains the response; a non-200 answer panics. The explicit encoding
// matters both ways: without "identity" net/http silently negotiates gzip
// and inflates behind the drain, so a plain arm would measure
// compress+inflate; with "gzip" its transparent inflate is off, so the
// drain reads the compressed bytes actually crossing the wire.
func roundTrip(c *http.Client, url string, body []byte, encoding string) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept-Encoding", encoding)
	resp, err := c.Do(req)
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		panic(fmt.Sprintf("serve round trip: status %d: %s", resp.StatusCode, data))
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		panic(err)
	}
}
