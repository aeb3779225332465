// Package engine is the unified, backend-agnostic query layer of the PRF
// ranking system — the code realization of the paper's central claim that
// one parameterized ranking function family (PRF, PRFω(h), PRFe(α))
// subsumes the zoo of earlier semantics, across every correlation model the
// paper covers.
//
// The split of responsibilities:
//
//   - Ranker is the capability interface every prepared view implements:
//     core.Prepared (tuple-independent relations), andxor.PreparedTree
//     (and/xor-tree correlations), junction.PreparedNetwork (arbitrary
//     correlations via junction trees) and junction.PreparedChain (the
//     Markov-chain special case). Each backend routes a capability to its
//     fastest kernel — kinetic sweeps for monotone α grids on independent
//     data, incremental Algorithm 3 on trees, cached rank-distribution
//     folds on networks, segment trees of transfer matrices on chains — and
//     validates inputs into errors instead of panicking.
//   - Query declares what to compute (a Metric plus its parameters) and in
//     what form (Output: values, a full ranking, or a top-k answer).
//   - Engine executes a Query against any Ranker: Rank for a single
//     evaluation, RankBatch for an α grid. Both take a context.Context and
//     abort promptly on cancellation — the fan-outs in internal/par check
//     the context between jobs, and serial sweeps check between grid
//     points.
//
// Engine answers are certified bit-for-bit equal to the per-backend kernels
// called directly (see ranker_conformance_test.go at the repository root):
// the engine adds dispatch and validation, never arithmetic.
package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/pdb"
)

// Ranker is the backend capability interface of the unified engine. All
// four prepared views satisfy it. Values returned by the Query* methods are
// indexed by TupleID; rankings are best-first.
//
// The ranking convention is the backend's native one — log-domain
// magnitudes on independent data, |Υ| on correlated backends — so rankings
// agree bit-for-bit with the per-backend kernels.
type Ranker interface {
	// Len returns the number of ranked tuples.
	Len() int
	// QueryPRFe evaluates Υ_α(t) for every tuple.
	QueryPRFe(ctx context.Context, alpha complex128) ([]complex128, error)
	// QueryPRFeBatch evaluates Υ_α(t) for every tuple at every α of a grid.
	QueryPRFeBatch(ctx context.Context, alphas []complex128) ([][]complex128, error)
	// QueryRankPRFe returns the full PRFe(α) ranking for real α.
	QueryRankPRFe(ctx context.Context, alpha float64) (pdb.Ranking, error)
	// QueryRankPRFeBatch returns the full PRFe ranking at every α of a grid,
	// using the fastest batch kernel the backend has.
	QueryRankPRFeBatch(ctx context.Context, alphas []float64) ([]pdb.Ranking, error)
	// QueryTopKPRFeBatch returns the PRFe top-k at every α of a grid.
	QueryTopKPRFeBatch(ctx context.Context, alphas []float64, k int) ([]pdb.Ranking, error)
	// QueryPRFeCombo evaluates the linear combination Σ_l u_l·Υ_{α_l}(t).
	QueryPRFeCombo(ctx context.Context, us, alphas []complex128) ([]complex128, error)
	// QueryPRF evaluates Υω(t) for an arbitrary weight function.
	QueryPRF(ctx context.Context, omega func(t pdb.Tuple, rank int) float64) ([]float64, error)
	// QueryPRFOmega evaluates the PRFω(h) family: w[j] weighs rank j+1,
	// ranks beyond len(w) weigh zero.
	QueryPRFOmega(ctx context.Context, w []float64) ([]float64, error)
	// QueryPTh evaluates Pr(r(t) ≤ h), the PT(h)/Global-top-k function.
	QueryPTh(ctx context.Context, h int) ([]float64, error)
	// QueryERank returns E[r(t)] per tuple (lower is better).
	QueryERank(ctx context.Context) ([]float64, error)
	// QueryExpectedRank returns the consensus expected rank per tuple
	// (Li/Deshpande convention: an absent tuple takes rank |pw|+1; lower is
	// better).
	QueryExpectedRank(ctx context.Context) ([]float64, error)
	// QueryMedianRank returns the consensus median rank per tuple: the
	// smallest j with Pr(r(t) ≤ j) ≥ 1/2, or the sentinel n+1 when the
	// tuple is absent from a majority of worlds (lower is better).
	QueryMedianRank(ctx context.Context) ([]float64, error)
}

// Metric selects the ranking function a Query evaluates.
type Metric uint8

const (
	// MetricPRFe is PRFe(α): Υ_α(t) = Σ_j Pr(r(t)=j)·α^j (Section 4.3).
	MetricPRFe Metric = iota + 1
	// MetricPRFOmega is PRFω(h): a weight vector over the first h ranks.
	MetricPRFOmega
	// MetricPTh is PT(h)/Global-top-k: Pr(r(t) ≤ h).
	MetricPTh
	// MetricPRF is the general Υω for an arbitrary weight function.
	MetricPRF
	// MetricERank is the expected rank E[r(t)] (lower is better; rankings
	// returned for it are already best-first).
	MetricERank
	// MetricPRFeCombo is a linear combination Σ_l u_l·Υ_{α_l}(t) — the
	// Section 5.1 approximation backend for arbitrary PRFω functions.
	MetricPRFeCombo
	// MetricGlobalTopk is the Global-Topk semantics of Zhang/Chomicki:
	// value(t) = Pr(t ∈ top-k(pw)) = Pr(r(t) ≤ K), and the answer is the K
	// tuples maximizing that probability. Query.K is both the world top-k
	// depth and the answer size, and must be ≥ 1 for every output form.
	MetricGlobalTopk
	// MetricExpectedRank is the consensus expected rank of Li/Deshpande
	// ("Consensus Answers"): E[r_pw(t)] where an absent tuple takes rank
	// |pw|+1. It differs from MetricERank (the Cormode convention, absent →
	// |pw|) by exactly Pr(t absent). Lower is better; rankings are
	// best-first.
	MetricExpectedRank
	// MetricMedianRank is the consensus median rank: the smallest j with
	// Pr(r_pw(t) ≤ j) ≥ 1/2 under the absent-→-∞ convention, with the
	// finite sentinel n+1 when no such j exists. Lower is better; rankings
	// are best-first.
	MetricMedianRank
)

func (m Metric) String() string {
	switch m {
	case MetricPRFe:
		return "PRFe"
	case MetricPRFOmega:
		return "PRFω"
	case MetricPTh:
		return "PT(h)"
	case MetricPRF:
		return "PRF"
	case MetricERank:
		return "E-Rank"
	case MetricPRFeCombo:
		return "PRFe-combo"
	case MetricGlobalTopk:
		return "Global-Topk"
	case MetricExpectedRank:
		return "Expected-Rank"
	case MetricMedianRank:
		return "Median-Rank"
	default:
		return fmt.Sprintf("Metric(%d)", uint8(m))
	}
}

// Output selects the answer form of a Query.
type Output uint8

const (
	// OutputValues returns the per-tuple values (Result.Values or
	// Result.Complex, indexed by TupleID) without ranking them.
	OutputValues Output = iota
	// OutputRanking returns the full best-first ranking.
	OutputRanking
	// OutputTopK returns the first K entries of the ranking.
	OutputTopK
)

func (o Output) String() string {
	switch o {
	case OutputValues:
		return "values"
	case OutputRanking:
		return "ranking"
	case OutputTopK:
		return "top-k"
	default:
		return fmt.Sprintf("Output(%d)", uint8(o))
	}
}

// Query declares one ranking computation. Zero values of the fields a
// metric does not use are ignored.
type Query struct {
	// Metric selects the ranking function. Required.
	Metric Metric
	// Output selects the answer form; the zero value is OutputValues.
	Output Output

	// Alpha is the PRFe parameter for single evaluations (Engine.Rank).
	Alpha float64
	// Alphas is the α grid for batch evaluations (Engine.RankBatch).
	// Strictly increasing grids inside (0, 1] ride the fastest batch kernel
	// a backend has (the kinetic sweep on independent data).
	Alphas []float64
	// Weights is the PRFω(h) weight vector: Weights[j] weighs rank j+1.
	Weights []float64
	// H is the PT(h) depth.
	H int
	// Omega is the arbitrary weight function for MetricPRF. Must be O(1)
	// per call.
	// prflint:uncacheable function values cannot be hashed or transported; CacheKey refuses Omega queries and the wire layer selects weights via Metric+Weights
	Omega func(t pdb.Tuple, rank int) float64
	// Terms are the PRFe-combination terms for MetricPRFeCombo.
	Terms []core.ExpTerm
	// K is the answer size for OutputTopK.
	K int
}

// Result is the answer to one Query (one grid point, for batches).
type Result struct {
	// Metric echoes the query.
	Metric Metric
	// Alpha is the α this result answers (meaningful for MetricPRFe; in a
	// batch each Result carries its grid point).
	Alpha float64
	// Values holds per-tuple real values, indexed by TupleID — set for
	// PRF, PRFω, PT(h) and E-Rank queries with OutputValues.
	Values []float64
	// Complex holds per-tuple complex Υ values, indexed by TupleID — set
	// for PRFe and PRFe-combo queries with OutputValues.
	Complex []complex128
	// Ranking is the best-first answer for OutputRanking and OutputTopK.
	Ranking pdb.Ranking
}

// Engine executes declarative ranking queries against one backend. It is
// stateless beyond the backend reference and safe for concurrent use
// (prepared views are safe for concurrent queries).
type Engine struct {
	r Ranker
}

// New wraps a backend in an Engine.
func New(r Ranker) *Engine { return &Engine{r: r} }

// Ranker returns the wrapped backend.
func (e *Engine) Ranker() Ranker { return e.r }

// Validation errors shared by Rank and RankBatch.
var (
	errNoMetric   = errors.New("engine: query has no Metric")
	errNilRanker  = errors.New("engine: nil Ranker backend")
	errBatchAlpha = errors.New("engine: RankBatch needs a non-empty Alphas grid (use Rank for single-α queries)")
)

// validateCommon checks the metric-specific parameters.
func (q *Query) validateCommon() error {
	switch q.Metric {
	case MetricPRFe:
		// α itself is checked by the backend (single vs grid differs).
	case MetricPRFOmega:
		if err := pdb.CheckWeights(q.Weights); err != nil {
			return err
		}
	case MetricPTh:
		if err := pdb.CheckDepth(q.H); err != nil {
			return err
		}
	case MetricPRF:
		if q.Omega == nil {
			return errors.New("engine: MetricPRF needs a non-nil Omega weight function")
		}
	case MetricERank:
		// no parameters
	case MetricPRFeCombo:
		us, alphas := splitTerms(q.Terms)
		if err := pdb.CheckCombo(us, alphas); err != nil {
			return err
		}
	case MetricGlobalTopk:
		// K is the world top-k depth for every output form, not just the
		// answer size, so the OutputTopK-only CheckTopK below is not enough.
		if q.K < 1 {
			return fmt.Errorf("engine: MetricGlobalTopk needs K ≥ 1 (got %d)", q.K)
		}
	case MetricExpectedRank, MetricMedianRank:
		// no parameters
	case 0:
		return errNoMetric
	default:
		return fmt.Errorf("engine: unknown metric %v", q.Metric)
	}
	switch q.Output {
	case OutputValues, OutputRanking:
	case OutputTopK:
		if err := pdb.CheckTopK(q.K); err != nil {
			return err
		}
	default:
		return fmt.Errorf("engine: unknown output mode %v", q.Output)
	}
	return nil
}

// splitTerms converts the ExpTerm form into the parallel slices the
// backends take, preserving term order (summation order is part of the
// bit-for-bit contract).
func splitTerms(terms []core.ExpTerm) (us, alphas []complex128) {
	us = make([]complex128, len(terms))
	alphas = make([]complex128, len(terms))
	for i, t := range terms {
		us[i], alphas[i] = t.U, t.Alpha
	}
	return us, alphas
}

// Rank executes a single-evaluation query. The context is honored by every
// backend: cancellation surfaces as ctx.Err() without partial results.
func (e *Engine) Rank(ctx context.Context, q Query) (*Result, error) {
	if e == nil || e.r == nil {
		return nil, errNilRanker
	}
	if err := q.validateCommon(); err != nil {
		return nil, err
	}
	if len(q.Alphas) > 0 {
		// A grid on a single-evaluation call would silently answer at the
		// zero-value Alpha — reject instead of guessing.
		return nil, errors.New("engine: Rank got an Alphas grid; use RankBatch for grids (or set Alpha for a single evaluation)")
	}
	res := &Result{Metric: q.Metric, Alpha: q.Alpha}

	switch q.Metric {
	case MetricPRFe:
		if q.Output == OutputValues {
			vals, err := e.r.QueryPRFe(ctx, complex(q.Alpha, 0))
			if err != nil {
				return nil, err
			}
			res.Complex = vals
			return res, nil
		}
		if q.Output == OutputTopK {
			// A single-point top-k batch takes the backend's top-k kernel —
			// on independent data the certified score-prefix selector,
			// which never ranks the whole relation. α is checked here so
			// the error reads as a single query's, not as grid point 0's.
			if err := pdb.CheckAlpha(q.Alpha); err != nil {
				return nil, err
			}
			rks, err := e.r.QueryTopKPRFeBatch(ctx, []float64{q.Alpha}, q.K)
			if err != nil {
				return nil, err
			}
			res.Ranking = rks[0]
			return res, nil
		}
		rk, err := e.r.QueryRankPRFe(ctx, q.Alpha)
		if err != nil {
			return nil, err
		}
		res.Ranking = finishRanking(rk, q)
		return res, nil

	case MetricPRFeCombo:
		us, alphas := splitTerms(q.Terms)
		vals, err := e.r.QueryPRFeCombo(ctx, us, alphas)
		if err != nil {
			return nil, err
		}
		if q.Output == OutputValues {
			res.Complex = vals
			return res, nil
		}
		// Combinations approximate real-valued PRFω functions, so ranking
		// goes by real part (the learn.RankWithCombo convention); magnitude
		// would invert the sign of negatively-weighted tuples.
		res.Ranking = finishRanking(pdb.RankByValue(core.RealParts(vals)), q)
		return res, nil
	}

	// The real-valued metrics share one shape: evaluate, then rank.
	vals, err := e.realValues(ctx, q)
	if err != nil {
		return nil, err
	}
	if q.Output == OutputValues {
		res.Values = vals
		return res, nil
	}
	res.Ranking = finishRanking(e.rankRealValues(q.Metric, vals), q)
	return res, nil
}

// realValues evaluates the real-valued metrics.
func (e *Engine) realValues(ctx context.Context, q Query) ([]float64, error) {
	switch q.Metric {
	case MetricPRFOmega:
		return e.r.QueryPRFOmega(ctx, q.Weights)
	case MetricPTh:
		return e.r.QueryPTh(ctx, q.H)
	case MetricPRF:
		return e.r.QueryPRF(ctx, q.Omega)
	case MetricERank:
		return e.r.QueryERank(ctx)
	case MetricGlobalTopk:
		// Pr(t ∈ top-k(pw)) is exactly PT(K) on every correlation model, so
		// Global-Topk rides each backend's fastest PT(h) kernel.
		return e.r.QueryPTh(ctx, q.K)
	case MetricExpectedRank:
		return e.r.QueryExpectedRank(ctx)
	case MetricMedianRank:
		return e.r.QueryMedianRank(ctx)
	default:
		return nil, fmt.Errorf("engine: unknown metric %v", q.Metric)
	}
}

// rankRealValues turns per-tuple values into a best-first ranking. The rank
// metrics (E-Rank, Expected-Rank, Median-Rank) are ascending-is-better and
// get negated, matching baselines.ERankRanking bit-for-bit; everything else
// ranks by non-increasing value with ties broken by ID.
func (e *Engine) rankRealValues(m Metric, vals []float64) pdb.Ranking {
	if m == MetricERank || m == MetricExpectedRank || m == MetricMedianRank {
		neg := make([]float64, len(vals))
		for i, v := range vals {
			neg[i] = -v
		}
		return pdb.RankByValue(neg)
	}
	return pdb.RankByValue(vals)
}

func finishRanking(r pdb.Ranking, q Query) pdb.Ranking {
	if q.Output == OutputTopK {
		return r.TopK(q.K)
	}
	return r
}

// DefaultStreamChunk is the grid-chunk size RankBatchStream uses when the
// caller passes a non-positive one: small enough that the first results
// reach the consumer promptly, large enough that monotone grids still
// amortize the kinetic sweep's initial sort across several points.
const DefaultStreamChunk = 8

// RankBatchStream evaluates the same α grid as RankBatch but emits results
// incrementally instead of materializing the whole batch: the grid is split
// into consecutive chunks of up to chunk points, each chunk runs through
// the exact batch kernels RankBatch uses, and emit is called once per chunk
// with that chunk's results, in grid order. Every emitted Result is
// identical to the one RankBatch would return at the same grid point (the
// batch kernels are certified per-α against the re-sort reference, so chunk
// boundaries never change answers). The context is honored between chunks
// and inside the kernels; an emit error aborts the stream and is returned
// unchanged. The serving layer's streamed /rankbatch is built on this.
func (e *Engine) RankBatchStream(ctx context.Context, q Query, chunk int, emit func(rs []Result) error) error {
	if e == nil || e.r == nil {
		return errNilRanker
	}
	if q.Metric != MetricPRFe {
		return fmt.Errorf("engine: RankBatchStream supports MetricPRFe α grids; %v has no grid axis", q.Metric)
	}
	if len(q.Alphas) == 0 {
		return errBatchAlpha
	}
	if chunk <= 0 {
		chunk = DefaultStreamChunk
	}
	for start := 0; start < len(q.Alphas); start += chunk {
		end := start + chunk
		if end > len(q.Alphas) {
			end = len(q.Alphas)
		}
		sub := q
		sub.Alphas = q.Alphas[start:end]
		rs, err := e.RankBatch(ctx, sub)
		if err != nil {
			return err
		}
		if err := emit(rs); err != nil {
			return err
		}
	}
	return nil
}

// RankBatch executes a PRFe query at every point of the q.Alphas grid —
// the α-sweep workhorse. out[a] answers grid point a exactly as Rank would
// with Alpha = q.Alphas[a]; monotone grids in (0, 1] additionally ride the
// backend's fastest sweep kernel. Only MetricPRFe is grid-parameterized;
// other metrics have no α axis to batch over.
func (e *Engine) RankBatch(ctx context.Context, q Query) ([]Result, error) {
	if e == nil || e.r == nil {
		return nil, errNilRanker
	}
	if q.Metric != MetricPRFe {
		return nil, fmt.Errorf("engine: RankBatch supports MetricPRFe α grids; %v has no grid axis", q.Metric)
	}
	if len(q.Alphas) == 0 {
		return nil, errBatchAlpha
	}
	if err := q.validateCommon(); err != nil {
		return nil, err
	}
	out := make([]Result, len(q.Alphas))
	for a, alpha := range q.Alphas {
		out[a] = Result{Metric: q.Metric, Alpha: alpha}
	}
	switch q.Output {
	case OutputValues:
		grid := make([]complex128, len(q.Alphas))
		for a, alpha := range q.Alphas {
			grid[a] = complex(alpha, 0)
		}
		rows, err := e.r.QueryPRFeBatch(ctx, grid)
		if err != nil {
			return nil, err
		}
		for a := range out {
			out[a].Complex = rows[a]
		}
	case OutputRanking:
		rks, err := e.r.QueryRankPRFeBatch(ctx, q.Alphas)
		if err != nil {
			return nil, err
		}
		for a := range out {
			out[a].Ranking = rks[a]
		}
	case OutputTopK:
		rks, err := e.r.QueryTopKPRFeBatch(ctx, q.Alphas, q.K)
		if err != nil {
			return nil, err
		}
		for a := range out {
			out[a].Ranking = rks[a]
		}
	}
	return out, nil
}
