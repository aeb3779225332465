// Package benchwork defines the repeated-query benchmark workloads shared
// by the root bench suite (bench_test.go) and cmd/bench, so the BENCH_N.json
// perf trajectory measures exactly what `go test -bench` measures. Each
// workload function performs one operation ("op" in ns/op terms); callers
// loop it b.N times.
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

	"repro/internal/andxor"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dftapprox"
	"repro/internal/engine"
	"repro/internal/junction"
	"repro/internal/pdb"
	"repro/internal/serve"
)

// DatasetSeed fixes the workload dataset so runs are comparable across PRs.
const DatasetSeed = 31

// Dataset returns the standard workload dataset: IIP-like, unsorted — what
// a fresh query workload sees before any preparation.
func Dataset(n int) *pdb.Dataset { return datagen.IIPLike(n, DatasetSeed) }

// Grid returns the m-point α grid in (0, 1) used by the spectrum sweeps,
// in both real and complex form.
func Grid(m int) ([]float64, []complex128) {
	alphas := make([]float64, m)
	calphas := make([]complex128, m)
	for i := range alphas {
		alphas[i] = float64(i+1) / float64(m+1)
		calphas[i] = complex(alphas[i], 0)
	}
	return alphas, calphas
}

// Terms returns the L-term DFT approximation of PT(1000) used by the combo
// workloads.
func Terms(l int) []core.ExpTerm {
	ts := dftapprox.TermsForRankWeights(
		dftapprox.Approximate(dftapprox.Step(1000), 1000, dftapprox.DefaultOptions(l)))
	out := make([]core.ExpTerm, len(ts))
	for i, t := range ts {
		out[i] = core.ExpTerm{U: t.U, Alpha: t.Alpha}
	}
	return out
}

// SpectrumOneShot evaluates PRFeLog at every grid point through the
// one-shot path (each query rebuilds and re-sorts a fresh view).
func SpectrumOneShot(d *pdb.Dataset, calphas []complex128) {
	for _, a := range calphas {
		core.PRFeLog(d, a)
	}
}

// SpectrumPrepared evaluates the same sweep preparing once.
func SpectrumPrepared(d *pdb.Dataset, calphas []complex128) {
	v := core.Prepare(d)
	for _, a := range calphas {
		v.PRFeLog(a)
	}
}

// SpectrumParallel evaluates the sweep with the parallel batch API.
func SpectrumParallel(d *pdb.Dataset, calphas []complex128) {
	core.Prepare(d).PRFeLogBatch(calphas)
}

// RankedOneShot produces a full PRFe ranking per grid point, one-shot.
func RankedOneShot(d *pdb.Dataset, alphas []float64) {
	for _, a := range alphas {
		core.RankPRFe(d, a)
	}
}

// RankedPrepared produces the rankings over one prepared view.
func RankedPrepared(d *pdb.Dataset, alphas []float64) {
	v := core.Prepare(d)
	for _, a := range alphas {
		v.RankPRFe(a)
	}
}

// RankedParallel produces the rankings with the per-α parallel batch path
// (the non-kinetic arm of the dispatcher). The grid is fed in descending
// order, which the kinetic sweep does not accept, so every α is ranked
// independently.
func RankedParallel(d *pdb.Dataset, alphas []float64) {
	desc := make([]float64, len(alphas))
	for i, a := range alphas {
		desc[len(alphas)-1-i] = a
	}
	if _, err := core.Prepare(d).QueryRankPRFeBatch(context.Background(), desc); err != nil {
		panic(err)
	}
}

// RankedKinetic produces the rankings with the kinetic sweep: one sort at
// the first grid point, then the α axis is walked by adjacent-pair
// crossings with a certification pass per grid point (the
// QueryRankPRFeBatch dispatcher's grid arm).
func RankedKinetic(d *pdb.Dataset, alphas []float64) {
	if _, err := core.Prepare(d).RankPRFeSweep(context.Background(), alphas); err != nil {
		panic(err)
	}
}

// CrossingPairs returns a deterministic set of sorted-position pairs for
// the crossing-point workloads, spread across span lengths. Datasets too
// small to form a pair yield an empty set.
func CrossingPairs(n, count int) [][2]int {
	if n < 2 {
		return nil
	}
	maxSpan := n / 4
	if maxSpan < 1 {
		maxSpan = 1
	}
	rng := rand.New(rand.NewSource(DatasetSeed + 7))
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

// CrossingIncremental exercises the optimized CrossingPoint solver
// (hoisted α-independent terms, safeguarded Newton over a single
// incremental pass) on every pair.
func CrossingIncremental(v *core.Prepared, pairs [][2]int) {
	for _, p := range pairs {
		v.CrossingPoint(p[0], p[1])
	}
}

// CrossingReference exercises the pre-optimization bisection reference on
// every pair.
func CrossingReference(v *core.Prepared, pairs [][2]int) {
	for _, p := range pairs {
		v.CrossingPointReference(p[0], p[1])
	}
}

// ---------------------------------------------------------------------------
// Correlated-data workloads (and/xor trees, junction chains).
// ---------------------------------------------------------------------------

// XTupleTree returns the Syn-XOR correlated workload: an x-tuple and/xor
// tree with n leaves.
func XTupleTree(n int) *andxor.Tree {
	t, err := datagen.SynXOR(n, DatasetSeed)
	if err != nil {
		panic(err)
	}
	return t
}

// DeepTree returns the Syn-HIGH correlated workload: a deep, highly
// correlated and/xor tree with n leaves.
func DeepTree(n int) *andxor.Tree {
	t, err := datagen.SynHIGH(n, DatasetSeed)
	if err != nil {
		panic(err)
	}
	return t
}

// TreePRFe evaluates PRFe(0.95) on a correlated tree with the incremental
// Algorithm 3 backend, one-shot: each op pays the leaf sort and the
// evaluation buffers (one op).
func TreePRFe(t *andxor.Tree) {
	andxor.PRFeValues(t, complex(0.95, 0))
}

// comboTerms splits ExpTerms into the parallel u/α slices the tree combo
// APIs take.
func comboTerms(terms []core.ExpTerm) (us, alphas []complex128) {
	us = make([]complex128, len(terms))
	alphas = make([]complex128, len(terms))
	for i, term := range terms {
		us[i], alphas[i] = term.U, term.Alpha
	}
	return us, alphas
}

// TreeCombo evaluates an L-term PRFe combination on a correlated tree
// through the one-shot path (prepare per call).
func TreeCombo(t *andxor.Tree, terms []core.ExpTerm) {
	TreeComboPrepared(andxor.PrepareTree(t), terms)
}

// PrepareTree builds the prepared view of a tree — hoisted out of the
// prepared-combo workload so the op measures evaluation, not preparation,
// mirroring how combo/fused holds one core.Prepared.
func PrepareTree(t *andxor.Tree) *andxor.PreparedTree { return andxor.PrepareTree(t) }

// TreeComboPrepared evaluates the combination over an already-prepared tree:
// the sort and the Algorithm 3 state are amortized across the terms.
func TreeComboPrepared(pt *andxor.PreparedTree, terms []core.ExpTerm) {
	us, alphas := comboTerms(terms)
	if _, err := pt.QueryPRFeCombo(context.Background(), us, alphas); err != nil {
		panic(err)
	}
}

// TreeSweepOneShot evaluates PRFe at every grid point through the per-query
// path: each α re-prepares the tree (sort + buffers), exactly what a naive
// α sweep on correlated data costs.
func TreeSweepOneShot(t *andxor.Tree, calphas []complex128) {
	for _, a := range calphas {
		andxor.PRFeValues(t, a)
	}
	// (one op = the whole grid)
}

// TreeSweepPrepared evaluates the same sweep preparing once: the batch API
// reuses the cached leaf order and pooled evaluation state across the grid.
func TreeSweepPrepared(t *andxor.Tree, calphas []complex128) {
	if _, err := andxor.PrepareTree(t).QueryPRFeBatch(context.Background(), calphas); err != nil {
		panic(err)
	}
}

// MarkovChain builds the standard calibrated n-variable Markov-chain
// workload (datagen.MarkovChainLike at the shared benchmark seed).
func MarkovChain(n int) *junction.Chain {
	return datagen.MarkovChainLike(n, DatasetSeed+13)
}

// ChainPRFe evaluates PRFe(0.95) on a Markov chain (one op). Since the
// prepared engine this is the product-tree path, O(n log n) per α; the
// pre-optimization Θ(n³) DP arm is ChainPRFeDP.
func ChainPRFe(c *junction.Chain) {
	junction.PRFeChain(c, complex(0.95, 0))
}

// ChainPRFeDP evaluates the same query with the Section 9.3 partial-sum DP
// backend — the pre-optimization reference (cubic in n, so chain workloads
// stay small).
func ChainPRFeDP(c *junction.Chain) {
	junction.PRFeChainDP(c, complex(0.95, 0))
}

// ChainSweepPrepared evaluates PRFe at every grid point over one prepared
// chain: the conditional tables and score order are cached and the grid
// fans out over pooled product trees.
func ChainSweepPrepared(c *junction.Chain, calphas []complex128) {
	if _, err := junction.PrepareChain(c).QueryPRFeBatch(context.Background(), calphas); err != nil {
		panic(err)
	}
}

// ChainPThCold answers one PT(h) query on a freshly prepared chain — the
// first read after a dataset refresh, which has no cached state to lean
// on. PT(h) runs the partial-sum DP truncated to h coefficients.
func ChainPThCold(c *junction.Chain, h int) {
	if _, err := junction.PrepareChain(c).QueryPTh(context.Background(), h); err != nil {
		panic(err)
	}
}

// ChainNetwork converts the chain into a general Markov network for the
// junction-tree workloads.
func ChainNetwork(c *junction.Chain) *junction.Network {
	net, err := c.Network()
	if err != nil {
		panic(err)
	}
	return net
}

// NetworkSweepOneShot evaluates PRFe at every grid point on a general
// network through the per-query path: each α re-triangulates, re-calibrates
// and re-runs the full partial-sum DP.
func NetworkSweepOneShot(net *junction.Network, calphas []complex128) {
	for _, a := range calphas {
		if _, err := junction.PRFe(net, a); err != nil {
			panic(err)
		}
	}
}

// NetworkSweepPrepared evaluates the same sweep preparing once: one
// junction-tree build, one DP pass, then a cheap fold per grid point.
func NetworkSweepPrepared(net *junction.Network, calphas []complex128) {
	pn, err := junction.PrepareNetwork(net)
	if err != nil {
		panic(err)
	}
	if _, err := pn.QueryPRFeBatch(context.Background(), calphas); err != nil {
		panic(err)
	}
}

// ---------------------------------------------------------------------------
// Unified-engine workloads: ONE generic body serves all four backends
// through Engine dispatch, replacing the former per-backend sweep
// specializations, and is measured against the direct prepared-view calls
// to certify the dispatch overhead.
// ---------------------------------------------------------------------------

// NewEngine wraps any prepared backend in the unified engine — hoisted out
// of the benchmark loops so ops measure dispatch + evaluation, not
// preparation.
func NewEngine(r engine.Ranker) *engine.Engine { return engine.New(r) }

// PrepareChain builds the prepared chain view (hoisted like PrepareTree).
func PrepareChain(c *junction.Chain) *junction.PreparedChain { return junction.PrepareChain(c) }

// PrepareNetwork builds the prepared network view.
func PrepareNetwork(net *junction.Network) *junction.PreparedNetwork {
	pn, err := junction.PrepareNetwork(net)
	if err != nil {
		panic(err)
	}
	return pn
}

// EngineRankSweep produces full PRFe rankings over an α grid through
// Engine.RankBatch — the backend-agnostic arm (one op = the whole grid).
func EngineRankSweep(e *engine.Engine, alphas []float64) {
	if _, err := e.RankBatch(context.Background(), engine.Query{
		Metric: engine.MetricPRFe, Alphas: alphas, Output: engine.OutputRanking,
	}); err != nil {
		panic(err)
	}
}

// EngineTopKSweep answers PRFe top-k over an α grid through
// Engine.RankBatch.
func EngineTopKSweep(e *engine.Engine, alphas []float64, k int) {
	if _, err := e.RankBatch(context.Background(), engine.Query{
		Metric: engine.MetricPRFe, Alphas: alphas, Output: engine.OutputTopK, K: k,
	}); err != nil {
		panic(err)
	}
}

// EngineValueSweep evaluates PRFe values over an α grid through
// Engine.RankBatch.
func EngineValueSweep(e *engine.Engine, alphas []float64) {
	if _, err := e.RankBatch(context.Background(), engine.Query{
		Metric: engine.MetricPRFe, Alphas: alphas, Output: engine.OutputValues,
	}); err != nil {
		panic(err)
	}
}

// EngineSemanticRanking answers one consensus-semantics ranking query —
// Global-Topk, Expected-Rank or Median-Rank — through Engine.Rank, at the
// given shard parallelism (0 = scalar path). One op = one full ranking.
func EngineSemanticRanking(e *engine.Engine, m engine.Metric, k, par int) {
	q := engine.Query{Metric: m, Output: engine.OutputRanking, Parallelism: par}
	if m == engine.MetricGlobalTopk {
		q.K = k
	}
	if _, err := e.Rank(context.Background(), q); err != nil {
		panic(err)
	}
}

// DirectRankSweep is the direct prepared-view call EngineRankSweep is
// measured against (same kernel, no engine dispatch).
func DirectRankSweep(v *core.Prepared, alphas []float64) {
	if _, err := v.QueryRankPRFeBatch(context.Background(), alphas); err != nil {
		panic(err)
	}
}

// DirectTopKSweep is the direct arm of EngineTopKSweep.
func DirectTopKSweep(v *core.Prepared, alphas []float64, k int) {
	if _, err := v.QueryTopKPRFeBatch(context.Background(), alphas, k); err != nil {
		panic(err)
	}
}

// ---------------------------------------------------------------------------
// Serving-layer workloads (PR 5): the repeated-dashboard query mix behind
// the engine-level result cache, and HTTP round trips through internal/serve.
// ---------------------------------------------------------------------------

// DashboardQueries returns the repeated-dashboard workload: the single-shot
// query mix a monitoring dashboard re-issues on every refresh — PRFe top-k
// boards at several α, a full ranking, a PT(h) board and an expected-rank
// board.
func DashboardQueries(k int) []engine.Query {
	return []engine.Query{
		{Metric: engine.MetricPRFe, Alpha: 0.95, Output: engine.OutputTopK, K: k},
		{Metric: engine.MetricPRFe, Alpha: 0.5, Output: engine.OutputTopK, K: k},
		{Metric: engine.MetricPRFe, Alpha: 0.99, Output: engine.OutputRanking},
		{Metric: engine.MetricPTh, H: k, Output: engine.OutputRanking},
		{Metric: engine.MetricERank, Output: engine.OutputTopK, K: k},
	}
}

// DashboardSweep returns the dashboard's spectrum panel: a ranked PRFe
// batch over a monotone α grid.
func DashboardSweep(gridPoints int) engine.Query {
	alphas, _ := Grid(gridPoints)
	return engine.Query{Metric: engine.MetricPRFe, Alphas: alphas, Output: engine.OutputRanking}
}

// EngineDashboard renders one dashboard refresh through the uncached
// engine: every panel re-evaluates (one op = all panels + the sweep).
func EngineDashboard(e *engine.Engine, qs []engine.Query, sweep engine.Query) {
	ctx := context.Background()
	for _, q := range qs {
		if _, err := e.Rank(ctx, q); err != nil {
			panic(err)
		}
	}
	if _, err := e.RankBatch(ctx, sweep); err != nil {
		panic(err)
	}
}

// CachedDashboard renders the same refresh through the cache-wrapped
// engine: after the first refresh every panel answers from the canonical
// (Query → Result) cache.
func CachedDashboard(ce *engine.CachedEngine, qs []engine.Query, sweep engine.Query) {
	ctx := context.Background()
	for _, q := range qs {
		if _, err := ce.Rank(ctx, q); err != nil {
			panic(err)
		}
	}
	if _, err := ce.RankBatch(ctx, sweep); err != nil {
		panic(err)
	}
}

// NewCachedEngine wraps an engine in the engine-level result cache —
// hoisted like NewEngine so ops measure lookups, not construction.
func NewCachedEngine(e *engine.Engine, capacity int) *engine.CachedEngine {
	return engine.NewCached(e, capacity)
}

// StartServeFixture starts an in-process HTTP server over the given
// engines with the default wire path (byte cache + single-flight on).
// cacheCapacity is passed as serve.Options.CacheCapacity, which the server
// uses only for datasets without a byte cache — so here it has no effect
// on what is cached. Callers must Close the returned server.
func StartServeFixture(engines map[string]*engine.Engine, cacheCapacity int) *httptest.Server {
	return StartServeFixtureOpts(engines, serve.Options{CacheCapacity: cacheCapacity})
}

// StartServeFixtureOpts is StartServeFixture with full control of the serve
// options — the bench arms use it to isolate the byte cache and the
// single-flight latch.
func StartServeFixtureOpts(engines map[string]*engine.Engine, opts serve.Options) *httptest.Server {
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

// ServeBatchBody marshals the /rankbatch request for a ranked α sweep.
func ServeBatchBody(dataset string, gridPoints int) []byte {
	alphas, _ := Grid(gridPoints)
	return mustJSON(serve.RankRequest{Dataset: dataset, Query: serve.WireQuery{
		Metric: "prfe", Alphas: alphas, Output: "ranking",
	}})
}

// ServeBatchStreamBody marshals the streamed variant of the ranked α-sweep
// request ("stream": true — chunked per-grid-point emission).
func ServeBatchStreamBody(dataset string, gridPoints int) []byte {
	alphas, _ := Grid(gridPoints)
	return mustJSON(serve.RankRequest{Dataset: dataset, Query: serve.WireQuery{
		Metric: "prfe", Alphas: alphas, Output: "ranking",
	}, Stream: true})
}

// ServeBatchStormBody marshals a ranked-sweep request whose α grid is
// unique per round, so every cold-storm round presents a key neither cache
// has seen: the grid is shifted by a round-scaled offset far below any real
// grid spacing but well above float64 rounding at these magnitudes.
func ServeBatchStormBody(dataset string, gridPoints, round int) []byte {
	alphas, _ := Grid(gridPoints)
	for i := range alphas {
		alphas[i] += float64(round+1) * 1e-9
	}
	return mustJSON(serve.RankRequest{Dataset: dataset, Query: serve.WireQuery{
		Metric: "prfe", Alphas: alphas, Output: "ranking",
	}})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// ServeRoundTrip posts one request body and drains the response — one op of
// the serve/* workloads. Non-200 answers panic (a benchmark must not
// silently measure error paths).
func ServeRoundTrip(c *http.Client, url string, body []byte) {
	// Pin the identity encoding: without this net/http silently negotiates
	// gzip and inflates the body behind io.Copy, so every "plain" arm would
	// actually measure compress+inflate (and lose comparability with the
	// BENCH_5 serve arms). The gzip wire is measured by ServeRoundTripGzip.
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept-Encoding", "identity")
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

// ServeRoundTripGzip is ServeRoundTrip with gzip negotiated: the explicit
// Accept-Encoding header disables net/http's transparent decompression, so
// the op measures the compressed bytes actually crossing the wire.
func ServeRoundTripGzip(c *http.Client, url string, body []byte) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := c.Do(req)
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		panic(fmt.Sprintf("serve gzip round trip: status %d: %s", resp.StatusCode, data))
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		panic(err)
	}
}

// ComboMultiPass evaluates the PRFe combination with the pre-fusion
// one-scan-per-term reference kernel.
func ComboMultiPass(v *core.Prepared, terms []core.ExpTerm) {
	core.PRFeComboMultiPass(v, terms)
}

// ComboFused evaluates the combination with the fused single-pass kernel.
func ComboFused(v *core.Prepared, terms []core.ExpTerm) {
	v.PRFeCombo(terms)
}

// ComboParallel evaluates the combination with the parallel-by-term kernel.
func ComboParallel(v *core.Prepared, terms []core.ExpTerm) {
	v.PRFeComboParallel(terms)
}

// ComboOneShot evaluates the combination through the one-shot path
// (prepare per call).
func ComboOneShot(d *pdb.Dataset, terms []core.ExpTerm) {
	core.PRFeCombo(d, terms)
}
