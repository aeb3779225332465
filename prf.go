// Package prf is a from-scratch Go implementation of
//
//	Jian Li, Barna Saha, Amol Deshpande.
//	"A Unified Approach to Ranking in Probabilistic Databases." VLDB 2009.
//
// It provides the paper's parameterized ranking functions — PRF, PRFω(h) and
// PRFe(α) — together with every substrate they rest on: the possible-worlds
// model for tuple-independent relations, probabilistic and/xor trees for
// correlated data, junction trees over Markov networks for arbitrary
// correlations, the generating-function ranking algorithms, the DFT-based
// approximation of weight functions by sums of complex exponentials, the
// parameter-learning procedures, and all prior ranking semantics the paper
// compares against (U-Top, U-Rank, PT(h)/Global-top-k, expected ranks,
// expected score, k-selection, consensus top-k).
//
// # Quick start
//
//	d, _ := prf.NewDataset(
//	    []float64{120, 130, 80},   // scores
//	    []float64{0.4, 0.7, 0.3},  // existence probabilities
//	)
//	res, _ := prf.EngineFor(d).Rank(context.Background(), prf.Query{
//	    Metric: prf.MetricPRFe, Alpha: 0.95, Output: prf.OutputTopK, K: 2,
//	})
//	top := res.Ranking
//
// The package is a thin, documented facade over the internal packages; see
// DESIGN.md for the architecture and EXPERIMENTS.md for the reproduction of
// the paper's evaluation.
package prf

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/andxor"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dftapprox"
	"repro/internal/engine"
	"repro/internal/junction"
	"repro/internal/learn"
	"repro/internal/pdb"
	"repro/internal/rankdist"
	"repro/internal/serve"
	"repro/internal/store"
)

// Base model types (Section 3.1).
type (
	// Tuple is an uncertain tuple: a ranking score plus an existence
	// probability.
	Tuple = pdb.Tuple
	// TupleID identifies a tuple within a dataset (dense 0..n-1).
	TupleID = pdb.TupleID
	// Dataset is a tuple-independent probabilistic relation.
	Dataset = pdb.Dataset
	// World is one possible world: present tuples in ranked order plus the
	// world's probability.
	World = pdb.World
	// Ranking is an ordered list of tuple IDs, best first.
	Ranking = pdb.Ranking
	// RankDistributionMatrix holds Pr(r(t)=j) for every tuple and rank.
	RankDistributionMatrix = pdb.RankDistribution
	// WeightFunc is the paper's ω(t, i) weight function.
	WeightFunc = core.WeightFunc
	// ExpTerm is one u·αⁱ term of an exponential-sum weight function.
	ExpTerm = core.ExpTerm
)

// NewDataset builds a dataset from parallel score/probability slices,
// assigning IDs 0..n-1 in input order.
func NewDataset(scores, probs []float64) (*Dataset, error) {
	return pdb.NewDataset(scores, probs)
}

// FromTuples builds a dataset from tuples, reassigning dense IDs.
func FromTuples(ts []Tuple) (*Dataset, error) { return pdb.FromTuples(ts) }

// EnumerateWorlds lists all possible worlds of a small tuple-independent
// dataset (≤ pdb.MaxEnumerate tuples) — the brute-force semantics reference.
func EnumerateWorlds(d *Dataset) ([]World, error) { return pdb.EnumerateWorlds(d) }

// SampleWorld draws one possible world of an independent dataset.
func SampleWorld(d *Dataset, rng *rand.Rand) World { return pdb.SampleWorld(d, rng) }

// ---------------------------------------------------------------------------
// The unified Ranker engine: one backend-agnostic query API over all four
// correlation models.
// ---------------------------------------------------------------------------

type (
	// Ranker is the backend capability interface of the unified engine,
	// satisfied by all four prepared views: Prepared (tuple-independent),
	// PreparedTree (and/xor correlations), PreparedNetwork (arbitrary
	// correlations) and PreparedChain (Markov chains). Its Query* methods
	// are context-aware and error-returning, and each backend dispatches to
	// its fastest kernel.
	Ranker = engine.Ranker
	// Engine executes declarative ranking queries (Query) against any
	// Ranker: Engine.Rank for single evaluations, Engine.RankBatch for α
	// grids. It is the facade's one ranking entry point. Answers are
	// bit-for-bit identical to the backend kernels it dispatches to; the
	// engine adds dispatch, validation and cancellation, never arithmetic.
	// Safe for concurrent use.
	Engine = engine.Engine
	// Query declares one ranking computation: a Metric, its parameters and
	// an Output form.
	Query = engine.Query
	// Result is the answer to one Query.
	Result = engine.Result
	// Metric selects the ranking function of a Query.
	Metric = engine.Metric
	// Output selects the answer form of a Query.
	Output = engine.Output
)

// The PRF family as query metrics.
const (
	MetricPRFe      = engine.MetricPRFe      // PRFe(α)
	MetricPRFOmega  = engine.MetricPRFOmega  // PRFω(h) weight vector
	MetricPTh       = engine.MetricPTh       // PT(h) / Global-top-k
	MetricPRF       = engine.MetricPRF       // arbitrary ω
	MetricERank     = engine.MetricERank     // expected rank (lower is better)
	MetricPRFeCombo = engine.MetricPRFeCombo // Σ u_l·PRFe(α_l)
)

// Query output forms.
const (
	OutputValues  = engine.OutputValues  // per-tuple values by TupleID
	OutputRanking = engine.OutputRanking // full best-first ranking
	OutputTopK    = engine.OutputTopK    // first K of the ranking
)

// NewEngine wraps any prepared backend in the unified query engine.
func NewEngine(r Ranker) *Engine { return engine.New(r) }

// EngineFor prepares a tuple-independent dataset and wraps it: the one-call
// path from data to unified queries.
func EngineFor(d *Dataset) *Engine { return engine.New(core.Prepare(d)) }

// EngineForTree prepares an and/xor tree and wraps it.
func EngineForTree(t *Tree) *Engine { return engine.New(andxor.PrepareTree(t)) }

// EngineForNetwork builds and calibrates the junction tree of a Markov
// network and wraps the prepared view.
func EngineForNetwork(net *MarkovNetwork) (*Engine, error) {
	pn, err := junction.PrepareNetwork(net)
	if err != nil {
		return nil, err
	}
	return engine.New(pn), nil
}

// EngineForChain prepares a Markov chain and wraps it.
func EngineForChain(c *MarkovChain) *Engine { return engine.New(junction.PrepareChain(c)) }

// LearnAlphaRanker fits PRFe's α from a user-ranked sample held in ANY
// backend — the one generic search behind LearnAlpha and LearnAlphaTree,
// now also covering junction networks and Markov chains. The context aborts
// long searches; malformed user rankings surface as errors.
func LearnAlphaRanker(ctx context.Context, r Ranker, user Ranking, k, iters int) (AlphaResult, error) {
	return learn.LearnAlphaRanker(ctx, r, user, k, iters)
}

// ---------------------------------------------------------------------------
// Engine-level result caching and the HTTP serving layer.
// ---------------------------------------------------------------------------

type (
	// CachedEngine memoizes an Engine behind a bounded, sharded LRU keyed
	// by the canonical query encoding (Query.CacheKey). Prepared views are
	// immutable, so the cache never invalidates, and a hit is bit-for-bit
	// the first evaluation's result — treat Result slices as read-only.
	// Safe for concurrent use.
	CachedEngine = engine.CachedEngine
	// CacheStats is a snapshot of a result cache's hit/miss/eviction
	// counters (the serving layer reports it per dataset on /stats).
	CacheStats = engine.CacheStats
	// RankServer is the HTTP front end over the unified engine: named
	// immutable datasets, declarative JSON queries routed to each dataset's
	// backend, per-request deadlines, per-dataset result caches, typed
	// error responses. It implements http.Handler.
	RankServer = serve.Server
	// ServeOptions configures a RankServer: default and maximum per-request
	// timeouts, per-dataset cache capacity, request size bound, and — with
	// Store and AdminToken set — the authenticated dataset lifecycle
	// endpoints (POST/DELETE /datasets/{name}, GET /datasets/{name}/info).
	ServeOptions = serve.Options
	// DatasetStore is a directory of immutable binary dataset segments:
	// score-sorted, checksummed, written atomically, re-imports bump a
	// generation counter while open readers keep their snapshot.
	// Independent datasets open lazily and answer cold top-k PRFe queries
	// from a certified score-order prefix (o(n) bytes for small k).
	DatasetStore = store.Store
	// DatasetInfo is the stored metadata of one segment: name, kind, tuple
	// count, generation, size.
	DatasetInfo = store.Info
)

// DefaultCacheCapacity is the result-cache entry bound used when a
// non-positive capacity is requested.
const DefaultCacheCapacity = engine.DefaultCacheCapacity

// NewCachedEngine wraps an engine with a result cache bounded to capacity
// entries (zero takes DefaultCacheCapacity, negative disables caching) —
// the repeated-dashboard fast path.
func NewCachedEngine(e *Engine, capacity int) *CachedEngine {
	return engine.NewCached(e, capacity)
}

// NewRankServer builds an empty serving front end. Register prepared
// datasets with AddDataset, then serve it with Serve (or mount it on any
// http.Server — it is an http.Handler).
func NewRankServer(opts ServeOptions) *RankServer { return serve.New(opts) }

// LoadDataset loads one dataset file into a prepared engine, ready for
// AddDataset. Kinds: "ind" (CSV score,probability), "xrel" (CSV
// score,probability,group — rows sharing a group are mutually exclusive
// alternatives), "tree" (JSON and/xor spec), "chain" (JSON Markov-chain
// spec).
func LoadDataset(kind, path string) (*Engine, error) { return serve.LoadFile(kind, path) }

// OpenStore opens (creating if needed) a segment store rooted at dir. Use
// Store.Import to persist datasets, Store.OpenEngine to open one for
// querying, and ServeOptions.Store to serve a whole directory with the
// dataset lifecycle endpoints enabled. cmd/prfstore is the offline CLI over
// the same store.
func OpenStore(dir string) (*DatasetStore, error) { return store.Open(dir) }

// Serve runs a RankServer on addr until ctx is canceled, then shuts down
// gracefully (in-flight requests get ten seconds to finish). A clean
// shutdown returns nil, not http.ErrServerClosed.
func Serve(ctx context.Context, addr string, s *RankServer) error {
	srv := &http.Server{Addr: addr, Handler: s, ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		//lint:allow ctxflow the graceful-shutdown timeout must outlive the already-cancelled parent ctx
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

// ---------------------------------------------------------------------------
// Prepared evaluation (the repeated-query fast path).
// ---------------------------------------------------------------------------

// Prepared is an immutable, score-sorted view of a dataset in
// struct-of-arrays layout. Build it once with Prepare, then call its kernel
// methods (PRF, PRFOmega, PTh, PRFe, PRFeLog, PRFeCombo,
// RankDistributionTrunc, …), its parallel batch methods (PRFeLogBatch,
// PRFeCurve) or its ctx-aware Ranker methods (QueryRankPRFeBatch,
// QueryTopKPRFeBatch, …) — none of them re-clones or
// re-sorts, so an α-spectrum sweep or a multi-term PRFe combination pays
// the O(n log n) sort exactly once. Safe for concurrent use.
type Prepared = core.Prepared

// Prepare builds the sorted struct-of-arrays view of a dataset. The dataset
// is never mutated; the one-shot package functions below are thin
// prepare-then-call wrappers over the same kernels.
func Prepare(d *Dataset) *Prepared { return core.Prepare(d) }

// ParallelTopK answers many independent top-k queries (one value vector per
// query, each indexed by TupleID) across GOMAXPROCS goroutines.
func ParallelTopK(valueBatch [][]float64, k int) []Ranking {
	return core.ParallelTopK(valueBatch, k)
}

// Sweep is the kinetic spectrum engine (Theorem 4): an event-driven sorted
// list that maintains the PRFe(α) ranking incrementally as α moves upward
// through (0, 1], paying one sort up front and O(log n) per adjacent-pair
// crossing instead of a re-sort per queried α. Build one with NewSweep and
// query it at non-decreasing α values. Unlike Prepared, a Sweep carries
// mutable cursor state and must not be shared across goroutines.
type Sweep = core.Sweep

// NewSweep builds a kinetic sweep over the prepared view positioned at
// alpha ∈ (0, 1]. Engine.RankBatch (through QueryRankPRFeBatch and
// QueryTopKPRFeBatch) constructs sweeps automatically for monotone α grids;
// reach for NewSweep directly when advancing α incrementally yourself.
func NewSweep(v *Prepared, alpha float64) *Sweep { return v.NewSweep(alpha) }

// URankPrepared is URank on a prepared view (no re-sort, no clone).
func URankPrepared(v *Prepared, k int) (Ranking, error) { return baselines.URankPrepared(v, k) }

// ERankPrepared is ERank on a prepared view (no re-sort, no clone).
func ERankPrepared(v *Prepared) []float64 { return baselines.ERankPrepared(v) }

// UTopKPrepared is UTopK on a prepared view (no re-sort, no clone).
func UTopKPrepared(v *Prepared, k int) (Ranking, float64, error) {
	return baselines.UTopKPrepared(v, k)
}

// KSelectionPrepared is KSelection on a prepared view (no re-sort, no clone).
func KSelectionPrepared(v *Prepared, k int) (Ranking, float64, error) {
	return baselines.KSelectionPrepared(v, k)
}

// ---------------------------------------------------------------------------
// Ranking functions on tuple-independent datasets (Sections 4.1 and 4.3).
// ---------------------------------------------------------------------------

// RankDistribution computes Pr(r(t)=j) for all tuples and ranks with the
// generating-function Algorithm 1 (O(n²)).
func RankDistribution(d *Dataset) *RankDistributionMatrix { return core.RankDistribution(d) }

// RankDistributionTrunc computes Pr(r(t)=j) for ranks j ≤ h only (O(n·h)).
func RankDistributionTrunc(d *Dataset, h int) *RankDistributionMatrix {
	return core.RankDistributionTrunc(d, h)
}

// PRFeLog evaluates log|Υ_α(t)|, the underflow-free form used for ranking.
func PRFeLog(d *Dataset, alpha complex128) []float64 { return core.PRFeLog(d, alpha) }

// TopK ranks all tuples by non-increasing value and returns the best k IDs.
func TopK(values []float64, k int) Ranking { return core.TopK(values, k) }

// RankByValue returns the full ranking by non-increasing value (values are
// indexed by TupleID; ties break by ID).
func RankByValue(values []float64) Ranking { return pdb.RankByValue(values) }

// RealParts extracts real components from complex ranking values.
func RealParts(vals []complex128) []float64 { return core.RealParts(vals) }

// AbsParts extracts magnitudes from complex ranking values.
func AbsParts(vals []complex128) []float64 { return core.AbsParts(vals) }

// CrossingPoint finds the unique α at which the tuples at sorted positions
// i < j swap PRFe order, if any (Theorem 4).
func CrossingPoint(d *Dataset, i, j int) (float64, bool) { return core.CrossingPoint(d, i, j) }

// PRFeCurve evaluates Υ_α(t) for every tuple over a grid of α values
// (Figure 6 / Example 7).
func PRFeCurve(d *Dataset, alphas []float64) [][]float64 { return core.PRFeCurve(d, alphas) }

// ---------------------------------------------------------------------------
// Probabilistic and/xor trees (Sections 3.1, 4.2, 4.3, 4.4).
// ---------------------------------------------------------------------------

type (
	// Tree is a validated probabilistic and/xor tree.
	Tree = andxor.Tree
	// TreeNode is a node under construction (leaf, ∧ or ∨).
	TreeNode = andxor.Node
	// Alternative is one (score, probability) choice of an x-tuple or an
	// uncertain-score tuple.
	Alternative = andxor.Alternative
)

// NewLeaf returns a leaf node with the given score.
func NewLeaf(score float64) *TreeNode { return andxor.NewLeaf(score) }

// NewKeyedLeaf returns a leaf carrying a possible-worlds key (leaves sharing
// a key must be mutually exclusive; enforced at NewTree).
func NewKeyedLeaf(key string, score float64) *TreeNode { return andxor.NewKeyedLeaf(key, score) }

// NewAnd returns a ∧ (co-existence) node.
func NewAnd(children ...*TreeNode) *TreeNode { return andxor.NewAnd(children...) }

// NewXor returns a ∨ (mutual-exclusion) node with per-child probabilities.
func NewXor(probs []float64, children ...*TreeNode) *TreeNode {
	return andxor.NewXor(probs, children...)
}

// NewTree validates the node structure (probability and key constraints)
// and returns the finished tree.
func NewTree(root *TreeNode) (*Tree, error) { return andxor.New(root) }

// XTuples builds the classic x-tuple model: groups of mutually exclusive
// alternatives under a ∧ root.
func XTuples(groups [][]Alternative) (*Tree, error) { return andxor.XTuples(groups) }

// IndependentTree wraps an independent dataset as a height-2 and/xor tree.
func IndependentTree(d *Dataset) (*Tree, error) { return andxor.Independent(d) }

// TreeFromWorlds encodes an explicit set of possible worlds as a tree
// (Figure 2 of the paper).
func TreeFromWorlds(worlds [][]Alternative, probs []float64, keys [][]string) (*Tree, [][]TupleID, error) {
	return andxor.FromWorlds(worlds, probs, keys)
}

// PreparedTree is an immutable prepared view of an and/xor tree — the
// correlated-data leg of the prepared-evaluation engine. Build it once with
// PrepareTree, then call its kernel methods (PRFe, RankPRFe, ERank) or its
// ctx-aware Ranker methods (QueryPRFeBatch, QueryRankPRFeBatch,
// QueryTopKPRFeBatch, QueryPRFeCombo, …): the ranked leaf order and the
// incremental Algorithm 3 evaluation state are paid once and reused, so
// α-spectrum sweeps and multi-term combinations on trees stop re-sorting
// and re-allocating per query. Safe for concurrent use.
type PreparedTree = andxor.PreparedTree

// PrepareTree builds the prepared view of an and/xor tree. The tree is never
// mutated; the one-shot tree functions below are thin prepare-then-call
// wrappers over the same kernels.
func PrepareTree(t *Tree) *PreparedTree { return andxor.PrepareTree(t) }

// TreeRankDistribution computes Pr(r(t)=j) on a correlated dataset with the
// bivariate generating-function Algorithm 2.
func TreeRankDistribution(t *Tree) *RankDistributionMatrix { return andxor.RankDistribution(t) }

// TreeRankDistributionTrunc truncates the computation to ranks ≤ h.
func TreeRankDistributionTrunc(t *Tree, h int) *RankDistributionMatrix {
	return andxor.RankDistributionTrunc(t, h)
}

// TreeExpectedRanks returns E[r(t)] on a correlated dataset.
func TreeExpectedRanks(t *Tree) []float64 { return andxor.ExpectedRanks(t) }

// TreeSizeDistribution returns Pr(|pw| = i) (Example 2 of the paper).
func TreeSizeDistribution(t *Tree) []float64 { return andxor.SizeDistribution(t) }

// PRFUncertainScores evaluates Υω per original tuple when scores carry
// discrete uncertainty (Section 4.4): alternatives become xor groups and
// per-alternative values are summed. Uses the specialized O(N²) sweep over
// the N alternatives (the paper's stated bound); the generic tree algorithm
// remains available through the Tree API.
func PRFUncertainScores(groups [][]Alternative, omega func(tu Tuple, rank int) float64) ([]float64, error) {
	return andxor.PRFUncertainFast(groups, omega)
}

// PRFeUncertainScores is the PRFe(α) version of PRFUncertainScores,
// running in O(N log N).
func PRFeUncertainScores(groups [][]Alternative, alpha complex128) ([]complex128, error) {
	return andxor.PRFeUncertainFast(groups, alpha)
}

// ---------------------------------------------------------------------------
// Prior ranking semantics (Section 3.2) and consensus answers (Section 6).
// ---------------------------------------------------------------------------

// EScore returns Pr(t)·score(t) per tuple.
func EScore(d *Dataset) []float64 { return baselines.EScore(d) }

// ByProbability returns Pr(t) per tuple.
func ByProbability(d *Dataset) []float64 { return baselines.ByProbability(d) }

// Typed errors surfaced by the consensus top-k baselines (URank, UTopK,
// KSelection) on degenerate queries; match with errors.Is.
var (
	ErrEmptyDataset         = baselines.ErrEmptyDataset
	ErrBadK                 = baselines.ErrBadK
	ErrAllZeroProbabilities = baselines.ErrAllZeroProbabilities
	ErrNoPositiveAnswer     = baselines.ErrNoPositiveAnswer
)

// URank returns the distinct-tuples U-Rank top-k answer. Degenerate
// queries (empty dataset, k outside 1..n, all-zero probabilities) return a
// typed error; see ErrEmptyDataset, ErrBadK, ErrAllZeroProbabilities.
func URank(d *Dataset, k int) (Ranking, error) { return baselines.URank(d, k) }

// URankTree is U-Rank on a correlated dataset, with the same typed-error
// contract as URank.
func URankTree(t *Tree, k int) (Ranking, error) { return baselines.URankTree(t, k) }

// ERank returns E[r(t)] per tuple (lower is better); pair with ERankRanking.
func ERank(d *Dataset) []float64 { return baselines.ERank(d) }

// ERankRanking converts expected ranks into a best-first ranking.
func ERankRanking(expectedRanks []float64) Ranking { return baselines.ERankRanking(expectedRanks) }

// UTopK returns the exact U-Top answer for independent tuples: the k-set
// with the highest probability of being exactly the top-k, plus that
// probability. O(n log n). Degenerate queries return a typed error; when
// fewer than k tuples have positive probability the answer is
// ErrNoPositiveAnswer rather than an arbitrary zero-probability set.
func UTopK(d *Dataset, k int) (Ranking, float64, error) { return baselines.UTopK(d, k) }

// UTopKMonteCarloTree estimates the U-Top answer of a correlated dataset by
// world sampling.
func UTopKMonteCarloTree(t *Tree, k, samples int, rng *rand.Rand) Ranking {
	return baselines.UTopKMonteCarlo(baselines.TreeSampler{T: t}, k, samples, rng)
}

// KSelection solves the k-selection query exactly for independent tuples
// with non-negative scores (O(nk) dynamic program), returning the chosen set
// and its expected best score. Degenerate queries return a typed error.
func KSelection(d *Dataset, k int) (Ranking, float64, error) {
	return baselines.KSelection(d, k)
}

// ConsensusTopK returns the consensus top-k answer under symmetric
// difference (Theorem 2: identical to PT(k)'s top-k).
func ConsensusTopK(d *Dataset, k int) Ranking { return baselines.ConsensusTopK(d, k) }

// ConsensusTopKTree is ConsensusTopK on a correlated dataset.
func ConsensusTopKTree(t *Tree, k int) Ranking { return baselines.ConsensusTopKTree(t, k) }

// ExpectedSymDiff computes E[disΔ(τ, τ_pw)] in closed form.
func ExpectedSymDiff(d *Dataset, tau Ranking) float64 { return baselines.ExpectedSymDiff(d, tau) }

// ExpectedWeightedSymDiff computes E[dis_ω(τ, τ_pw)] for weighted symmetric
// difference (Theorem 3).
func ExpectedWeightedSymDiff(d *Dataset, tau Ranking, w []float64) float64 {
	return baselines.ExpectedWeightedSymDiff(d, tau, w)
}

// ---------------------------------------------------------------------------
// Approximation and learning (Section 5).
// ---------------------------------------------------------------------------

type (
	// ApproxOptions configures the DFT approximation pipeline.
	ApproxOptions = dftapprox.Options
	// ApproxTerm is one exponential of the approximation.
	ApproxTerm = dftapprox.Term
	// AlphaResult is the outcome of LearnAlpha.
	AlphaResult = learn.AlphaResult
	// OmegaOptions configures LearnOmega.
	OmegaOptions = learn.OmegaOptions
)

// DefaultApproxOptions returns the recommended DFT+DF+IS+ES configuration
// with L terms.
func DefaultApproxOptions(l int) ApproxOptions { return dftapprox.DefaultOptions(l) }

// ApproximateWeights fits ω(i), i ∈ [0, n), by a sum of L complex
// exponentials (Section 5.1).
func ApproximateWeights(omega func(i int) float64, n int, opts ApproxOptions) []ApproxTerm {
	return dftapprox.Approximate(omega, n, opts)
}

// ApproxPRFeTerms converts a weight-sequence approximation into the ExpTerm
// form consumed by PRFeCombo (rank j uses α^j).
func ApproxPRFeTerms(terms []ApproxTerm) []ExpTerm {
	rw := dftapprox.TermsForRankWeights(terms)
	out := make([]ExpTerm, len(rw))
	for i, t := range rw {
		out[i] = ExpTerm{U: t.U, Alpha: t.Alpha}
	}
	return out
}

// StepWeights returns the PT(h)-style step weight function on [0, n).
func StepWeights(n int) func(int) float64 { return dftapprox.Step(n) }

// LearnAlpha fits PRFe's α from a user-ranked sample by recursive grid
// refinement (Section 5.2).
func LearnAlpha(sample *Dataset, user Ranking, k, iters int) AlphaResult {
	return learn.LearnAlpha(sample, user, k, iters)
}

// LearnAlphaTree fits PRFe's α from a user-ranked sample of correlated data:
// the grid-refinement search of LearnAlpha running on one shared
// PreparedTree.
func LearnAlphaTree(sample *Tree, user Ranking, k, iters int) AlphaResult {
	return learn.LearnAlphaTree(sample, user, k, iters)
}

// LearnOmega fits a PRFω(h) weight vector from a user-ranked sample with an
// L2-regularized pairwise hinge loss (RankSVM objective).
func LearnOmega(sample *Dataset, user Ranking, opts OmegaOptions) []float64 {
	return learn.LearnOmega(sample, user, opts)
}

// ---------------------------------------------------------------------------
// Markov networks and junction trees (Section 9).
// ---------------------------------------------------------------------------

type (
	// MarkovNetwork is a factor graph over binary tuple-presence variables.
	MarkovNetwork = junction.Network
	// MarkovFactor is one potential of a Markov network.
	MarkovFactor = junction.Factor
	// JunctionTree is a calibrated junction tree.
	JunctionTree = junction.JTree
	// MarkovChain is the Section 9.3 chain special case.
	MarkovChain = junction.Chain
)

// NewMarkovNetwork validates and builds a Markov network over the given
// tuple scores.
func NewMarkovNetwork(scores []float64, factors []MarkovFactor) (*MarkovNetwork, error) {
	return junction.NewNetwork(scores, factors)
}

// BuildJunctionTree triangulates (min-fill), builds and calibrates the
// junction tree of a Markov network.
func BuildJunctionTree(net *MarkovNetwork) (*JunctionTree, error) {
	return junction.BuildJunctionTree(net)
}

// NetworkRankDistribution computes Pr(r(t)=j) on an arbitrarily correlated
// dataset via the Section 9.4 partial-sum dynamic program (polynomial for
// bounded treewidth).
func NetworkRankDistribution(net *MarkovNetwork) (*RankDistributionMatrix, error) {
	return junction.RankDistribution(net)
}

// NewMarkovChain builds the Section 9.3 chain model from calibrated pairwise
// joints Pr(Y_j, Y_{j+1}).
func NewMarkovChain(scores []float64, pair [][2][2]float64) (*MarkovChain, error) {
	return junction.NewChain(scores, pair)
}

// PreparedNetwork is an immutable prepared view of a Markov network: the
// junction tree is built and calibrated once, the rank-distribution matrix
// is cached on first use, and the partial-sum DP buffers are pooled, so
// repeated ranking queries (PRF, PRFe, ERank, QueryPRFeBatch over an α
// grid) stop re-triangulating and re-running the DP. Safe for concurrent
// use.
type PreparedNetwork = junction.PreparedNetwork

// PrepareNetwork builds the prepared view of a Markov network. The one-shot
// Network* functions are thin prepare-then-call wrappers over its methods.
func PrepareNetwork(net *MarkovNetwork) (*PreparedNetwork, error) {
	return junction.PrepareNetwork(net)
}

// PreparedChain is an immutable prepared view of a Markov chain serving
// repeated PRFe queries with the product-tree algorithm: a segment tree of
// 2×2 transfer matrices shares all prefix/suffix sub-products across the n
// tuples, so one α costs O(n log n) instead of the Θ(n³) rank-distribution
// DP (kept as the PRFeChainDP reference). Safe for concurrent use.
type PreparedChain = junction.PreparedChain

// PrepareChain builds the prepared view of a Markov chain.
func PrepareChain(c *MarkovChain) *PreparedChain { return junction.PrepareChain(c) }

// ---------------------------------------------------------------------------
// Rank-comparison metrics (Section 3.2).
// ---------------------------------------------------------------------------

// KendallTopK is the paper's normalized Kendall distance between top-k lists
// (Fagin et al., optimistic variant, divided by k²).
func KendallTopK(a, b Ranking, k int) float64 { return rankdist.KendallTopK(a, b, k) }

// KendallFull is the classical normalized Kendall tau over full rankings.
func KendallFull(a, b Ranking) float64 { return rankdist.KendallFull(a, b) }

// FootruleTopK is the normalized Spearman footrule for top-k lists.
func FootruleTopK(a, b Ranking, k int) float64 { return rankdist.FootruleTopK(a, b, k) }

// IntersectionMetric is 1 − |A ∩ B|/k for top-k answers.
func IntersectionMetric(a, b Ranking, k int) float64 { return rankdist.Intersection(a, b, k) }

// PRFl evaluates the PRFℓ special case ω(i) = −i (Section 3.3) for every
// tuple: the negated expected rank restricted to worlds containing t.
func PRFl(d *Dataset) []float64 { return core.PRFl(d) }

// ExpectedRankDecomposition splits E[r(t)] into the Section 3.3 parts:
// er1 (worlds containing t, equal to −PRFℓ) and er2 (worlds missing t).
func ExpectedRankDecomposition(d *Dataset) (er1, er2 []float64) {
	return core.ExpectedRankDecomposition(d)
}

// LinearWeights returns the decaying-linear weight function n−i on [0, n).
func LinearWeights(n int) func(int) float64 { return dftapprox.LinearDecay(n) }

// SmoothWeights returns the fixed smooth weight function used as the
// paper's "sfunc" stand-in.
func SmoothWeights(n int) func(int) float64 { return dftapprox.Smooth(n) }

// LogDiscountWeights returns the IR discount ω(i) = ln2/ln(i+2) on [0, n)
// (Section 3.3's discount-factor example).
func LogDiscountWeights(n int) func(int) float64 { return dftapprox.LogDiscount(n) }

// SpectrumSize counts the distinct PRFe rankings the dataset passes through
// as α sweeps (0, 1) — exactly, by counting the kinetic sweep's crossing
// events — the Section 7 observation that PRFe spans up to O(n²) rankings
// while PT(h) spans at most n. Use SpectrumSizeGrid for the cheaper sampled
// count on a uniform grid.
func SpectrumSize(d *Dataset) int { return core.SpectrumSize(d) }

// SpectrumSizeGrid counts distinct PRFe rankings over a uniform α grid —
// the sampled spectrum, which misses rankings that live between grid points.
func SpectrumSizeGrid(d *Dataset, gridSize int) int { return core.SpectrumSizeGrid(d, gridSize) }

// TreeRankByKey aggregates PRFe values per possible-worlds key on a tree —
// the Section 4.4 reduction on arbitrary correlated data: leaves sharing a
// key are score alternatives of one logical tuple. Returns the keys
// best-first with their |Υ| values.
func TreeRankByKey(t *Tree, alpha complex128) (keys []string, values []float64) {
	return andxor.RankByKey(t, alpha)
}

// NetworkExpectedRanks returns E[r(t)] on an arbitrarily correlated dataset
// via the junction-tree partial-sum DP (prepare-then-call wrapper).
func NetworkExpectedRanks(net *MarkovNetwork) ([]float64, error) {
	pn, err := junction.PrepareNetwork(net)
	if err != nil {
		return nil, err
	}
	return pn.ERank(), nil
}

// LearnPRFeComboTerms learns a linear combination of PRFe functions from a
// user-ranked sample: LearnOmega followed by the DFT compression into L
// exponentials (the paper's two-stage recipe). The result plugs into
// PRFeCombo for O(n·L) ranking at any scale.
func LearnPRFeComboTerms(sample *Dataset, user Ranking, omega OmegaOptions, l int) []ExpTerm {
	return learn.LearnPRFeCombo(sample, user, learn.ComboOptions{Omega: omega, L: l})
}
