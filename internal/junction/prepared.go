package junction

import (
	"context"
	"sort"
	"sync"

	"repro/internal/exact"
	"repro/internal/par"
	"repro/internal/pdb"
)

// PreparedNetwork is the arbitrary-correlations analogue of core.Prepared:
// it pays the junction-tree construction (min-fill triangulation, spanning
// tree, two-pass calibration) and the DP indexing exactly once, caches the
// rank-distribution matrix the first time any ranking function needs it, and
// pools the partial-sum DP buffers so repeated queries stop reallocating
// per-clique state. PRFe over an α grid then costs one DP pass plus one
// cheap fold per grid point, instead of one tree build plus one full DP pass
// per point.
//
// A PreparedNetwork is safe for concurrent use: the calibrated tree and the
// cached matrix are immutable once built, and every DP query checks a
// private evaluation state out of an internal pool.
type PreparedNetwork struct {
	jt   *JTree
	marg []float64 // cached Pr(X_v = 1)
	pool sync.Pool // *dpEval

	rdOnce sync.Once
	rd     *pdb.RankDistribution
}

// PrepareNetwork builds and calibrates the junction tree of a Markov network
// and returns the prepared view. The network is never mutated; the one-shot
// package functions (RankDistribution, PRF, PRFe) are thin prepare-then-call
// wrappers over the same methods.
func PrepareNetwork(net *Network) (*PreparedNetwork, error) {
	jt, err := BuildJunctionTree(net)
	if err != nil {
		return nil, err
	}
	return PrepareJunctionTree(jt), nil
}

// PrepareJunctionTree wraps an already-built junction tree as a prepared
// view (for callers that inspect the tree as well as query it).
func PrepareJunctionTree(jt *JTree) *PreparedNetwork {
	pn := &PreparedNetwork{jt: jt, marg: make([]float64, jt.net.n)}
	for v := range pn.marg {
		pn.marg[v] = jt.VariableMarginal(v)
	}
	return pn
}

// Len returns the number of variables (tuples).
func (pn *PreparedNetwork) Len() int { return pn.jt.net.n }

// Network returns the underlying Markov network.
func (pn *PreparedNetwork) Network() *Network { return pn.jt.net }

// JTree returns the calibrated junction tree.
func (pn *PreparedNetwork) JTree() *JTree { return pn.jt }

// Marginal returns the cached presence marginal Pr(X_v = 1).
func (pn *PreparedNetwork) Marginal(v int) float64 { return pn.marg[v] }

func (pn *PreparedNetwork) getEval() *dpEval {
	if e, ok := pn.pool.Get().(*dpEval); ok {
		e.reset()
		return e
	}
	return pn.jt.newDPEval()
}

func (pn *PreparedNetwork) putEval(e *dpEval) { pn.pool.Put(e) }

// RankDistribution returns the positional-probability matrix, computing it
// with the Section 9.4 DP on first use and serving the cached matrix (which
// is immutable) afterwards.
func (pn *PreparedNetwork) RankDistribution() *pdb.RankDistribution {
	pn.rdOnce.Do(func() {
		e := pn.getEval()
		pn.rd = e.rankDistribution()
		pn.putEval(e)
	})
	return pn.rd
}

// PRF computes Υω for every tuple: the cached rank-distribution matrix
// folded with the weight function. Results are identical to the one-shot
// PRF.
func (pn *PreparedNetwork) PRF(omega func(tu pdb.Tuple, rank int) float64) []float64 {
	net := pn.jt.net
	rd := pn.RankDistribution()
	out := make([]float64, net.n)
	for v := 0; v < net.n; v++ {
		tu := pdb.Tuple{ID: pdb.TupleID(v), Score: net.scores[v], Prob: pn.marg[v]}
		for j, p := range rd.Dist[v] {
			if p != 0 {
				out[v] += omega(tu, j+1) * p
			}
		}
	}
	return out
}

// PRFe computes Υ_α for every tuple by folding the cached rank distribution
// with powers of α. After the first ranking query the marginal cost of a new
// α is one O(n²) fold. Results are identical to the one-shot PRFe.
func (pn *PreparedNetwork) PRFe(alpha complex128) []complex128 {
	rd := pn.RankDistribution()
	out := make([]complex128, pn.Len())
	for v := range out {
		out[v] = prfeFold(rd.Dist[v], alpha)
	}
	return out
}

// prfeBatchCtx evaluates PRFe for every α of a grid: the DP runs once and
// the per-α folds fan out across GOMAXPROCS goroutines, with cancellation
// honored between grid points. out[a] equals PRFe(alphas[a]) bit-for-bit.
// It is the body of QueryPRFeBatch.
func (pn *PreparedNetwork) prfeBatchCtx(ctx context.Context, alphas []complex128) ([][]complex128, error) {
	rd := pn.RankDistribution()
	out := make([][]complex128, len(alphas))
	err := par.ForWorkersCtx(ctx, par.Workers(len(alphas)), len(alphas), func(_, a int) {
		row := make([]complex128, pn.Len())
		for v := range row {
			row[v] = prfeFold(rd.Dist[v], alphas[a])
		}
		out[a] = row
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RankPRFe returns the PRFe(α) ranking of the network's tuples for real α,
// ranking by |Υ|.
func (pn *PreparedNetwork) RankPRFe(alpha float64) pdb.Ranking {
	return pdb.RankByAbs(pn.PRFe(complex(alpha, 0)))
}

// ERank returns E[r(t)] per tuple over the cached matrix and marginals,
// with the er2 DP passes running on a pooled evaluation state. Results are
// identical to JTree.ExpectedRanks.
func (pn *PreparedNetwork) ERank() []float64 {
	rd := pn.RankDistribution()
	e := pn.getEval()
	out := e.expectedRanks(rd, pn.marg)
	pn.putEval(e)
	return out
}

// ExpectedRank returns the consensus expected rank (the Li/Deshpande
// convention: absent tuples take rank |pw|+1): ERank plus the absence mass
// 1 − marginal, the exact gap between the two conventions on every world.
func (pn *PreparedNetwork) ExpectedRank() []float64 {
	out := pn.ERank()
	for v := range out {
		out[v] += 1 - pn.marg[v]
	}
	return out
}

// MedianRank returns the consensus median rank per tuple — the smallest j
// with Pr(r(t) ≤ j) ≥ 1/2, sentinel n+1 when the tuple is absent from a
// majority of worlds — folded from the cached rank-distribution matrix.
func (pn *PreparedNetwork) MedianRank() []float64 {
	return pdb.MedianRankFromDistribution(pn.RankDistribution(), pn.Len())
}

// ---------------------------------------------------------------------------
// Prepared Markov chains: the Section 9.3 special case, where PRFe admits a
// far better batch algorithm than the partial-sum DP.
// ---------------------------------------------------------------------------

// PreparedChain serves repeated PRFe queries on a Markov chain. Preparing
// caches the score order, the per-position marginals and the conditional
// transition tables; each PRFe evaluation then runs the product-tree
// algorithm below instead of the Θ(n³) rank-distribution DP.
//
// The algorithm: for fixed α, Υ_α(t) = α·E[X_t·α^{S_t}] with S_t the number
// of higher-ranked present tuples, and the expectation factorizes along the
// chain into a product of 2×2 transfer matrices — position 0 carries a
// marginal row, position j > 0 carries T[a][b] = Pr(Y_j=b|Y_{j−1}=a)·w_j(b),
// where the weight w marks higher-ranked variables with α, the target with
// the X_t = 1 evidence, and everything else with 1. A segment tree over the
// matrices shares all prefix/suffix sub-products across the n queries:
// walking the tuples in rank order, each step relabels one leaf (evidence
// in, evidence out, mark the tuple that just joined the higher-ranked set)
// and re-reads the root product, so every Υ_α(t) costs O(log n) matrix
// multiplications and the whole batch is one O(n log n) bottom-up pass —
// versus Θ(n²) per tuple for the DP.
//
// A PreparedChain is safe for concurrent use: queries check private
// product-tree states out of an internal pool, and the batch methods fan α
// values across GOMAXPROCS goroutines.
type PreparedChain struct {
	c     *Chain
	order []int           // variables by non-increasing score, ties by index
	m     [][2]float64    // m[j][y] = Pr(Y_j = y)
	cond  [][2][2]float64 // cond[j][a][b] = Pr(Y_{j+1}=b | Y_j=a); zero rows for zero marginals
	pool  sync.Pool       // *chainEval

	rdOnce sync.Once // guards rd: the Θ(n³) chain DP runs at most once
	rd     *pdb.RankDistribution

	erMu sync.Mutex // guards er: n more partial-sum DPs, also run at most once
	er   []float64
}

// RankDistribution returns the chain's positional-probability matrix,
// computing it with the Section 9.3 partial-sum DP (Θ(n³)) on first use and
// serving the cached immutable matrix afterwards. Only the folds that need
// every rank read it: arbitrary-ω PRF, Median-Rank and E-Rank. PRFe runs
// the O(n log n) product tree, and PT(h) and PRFω(h) run the same DP
// truncated to their first h coefficients, O(n²·h), without the matrix.
func (pc *PreparedChain) RankDistribution() *pdb.RankDistribution {
	pc.rdOnce.Do(func() { pc.rd = pc.rankDistribution() })
	return pc.rd
}

// PrepareChain builds the prepared view of a chain. The chain is never
// mutated; the one-shot PRFeChain is a thin prepare-then-call wrapper.
func PrepareChain(c *Chain) *PreparedChain {
	n := c.Len()
	pc := &PreparedChain{
		c:    c,
		m:    make([][2]float64, n),
		cond: make([][2][2]float64, n-1),
	}
	for j := 0; j < n-1; j++ {
		pc.m[j] = [2]float64{c.pair[j][0][0] + c.pair[j][0][1], c.pair[j][1][0] + c.pair[j][1][1]}
	}
	pc.m[n-1] = [2]float64{c.pair[n-2][0][0] + c.pair[n-2][1][0], c.pair[n-2][0][1] + c.pair[n-2][1][1]}
	for j := range pc.cond {
		for a := 0; a < 2; a++ {
			if pc.m[j][a] > 0 {
				for b := 0; b < 2; b++ {
					pc.cond[j][a][b] = c.pair[j][a][b] / pc.m[j][a]
				}
			}
		}
	}
	pc.order = make([]int, n)
	for i := range pc.order {
		pc.order[i] = i
	}
	// (score desc, index asc) is a strict total order, so any sort yields
	// the same permutation.
	scores := c.scores
	sort.SliceStable(pc.order, func(a, b int) bool {
		if !exact.Same(scores[pc.order[a]], scores[pc.order[b]]) {
			return scores[pc.order[a]] > scores[pc.order[b]]
		}
		return pc.order[a] < pc.order[b]
	})
	return pc
}

// Len returns the number of variables.
func (pc *PreparedChain) Len() int { return pc.c.Len() }

// Chain returns the underlying chain.
func (pc *PreparedChain) Chain() *Chain { return pc.c }

// mat2 is a 2×2 complex matrix in row-major order: m[a*2+b] = entry (a, b).
type mat2 [4]complex128

func mulMat2(l, r mat2) mat2 {
	return mat2{
		l[0]*r[0] + l[1]*r[2], l[0]*r[1] + l[1]*r[3],
		l[2]*r[0] + l[3]*r[2], l[2]*r[1] + l[3]*r[3],
	}
}

// chainEval is one product-tree state: a 1-indexed segment tree whose leaves
// hold the per-position transfer matrices and whose internal nodes hold the
// products of their children — the shared prefix/suffix messages.
type chainEval struct {
	sz   int // leaf offset: smallest power of two ≥ n
	tree []mat2
}

func newChainEval(n int) *chainEval {
	sz := 1
	for sz < n {
		sz <<= 1
	}
	return &chainEval{sz: sz, tree: make([]mat2, 2*sz)}
}

// setLeaf replaces leaf j's matrix and refreshes the O(log n) ancestor
// products.
func (e *chainEval) setLeaf(j int, m mat2) {
	i := e.sz + j
	e.tree[i] = m
	for i >>= 1; i >= 1; i >>= 1 {
		e.tree[i] = mulMat2(e.tree[2*i], e.tree[2*i+1])
	}
}

// rebuild recomputes every internal product after the leaves were written
// directly.
func (e *chainEval) rebuild() {
	for i := e.sz - 1; i >= 1; i-- {
		e.tree[i] = mulMat2(e.tree[2*i], e.tree[2*i+1])
	}
}

// root returns the full-chain product T_0·T_1⋯T_{n−1}.
func (e *chainEval) root() mat2 { return e.tree[1] }

// baseMat returns position j's unmarked transfer matrix: the marginal row
// for position 0, the conditional table afterwards.
func (pc *PreparedChain) baseMat(j int) mat2 {
	if j == 0 {
		return mat2{complex(pc.m[0][0], 0), complex(pc.m[0][1], 0), 0, 0}
	}
	t := &pc.cond[j-1]
	return mat2{
		complex(t[0][0], 0), complex(t[0][1], 0),
		complex(t[1][0], 0), complex(t[1][1], 0),
	}
}

func (pc *PreparedChain) getEval() *chainEval {
	//lint:allow poolhygiene prfeInto rewrites every leaf (real and padding) and rebuilds all internal products before any read, so a recycled tree carries no observable state
	if e, ok := pc.pool.Get().(*chainEval); ok {
		return e
	}
	return newChainEval(pc.Len())
}

func (pc *PreparedChain) putEval(e *chainEval) { pc.pool.Put(e) }

// prfeInto evaluates Υ_α for every variable into out, walking the tuples in
// rank order over one product tree.
func (pc *PreparedChain) prfeInto(e *chainEval, alpha complex128, out []complex128) {
	n := pc.Len()
	identity := mat2{1, 0, 0, 1}
	for j := 0; j < n; j++ {
		e.tree[e.sz+j] = pc.baseMat(j)
	}
	for j := n; j < e.sz; j++ {
		e.tree[e.sz+j] = identity
	}
	e.rebuild()
	for _, v := range pc.order {
		// Evidence X_v = 1: zero column 0 of v's (currently unmarked) matrix.
		b := pc.baseMat(v)
		e.setLeaf(v, mat2{0, b[1], 0, b[3]})
		r := e.root()
		out[v] = alpha * (r[0] + r[1]) // Σ_y (T_0⋯T_{n−1})[0][y]
		// v now joins the higher-ranked set of everything after it: scale
		// column 1 (the Y_v = 1 states) by α.
		e.setLeaf(v, mat2{b[0], alpha * b[1], b[2], alpha * b[3]})
	}
}

// PRFe evaluates Υ_α for every tuple with the product-tree algorithm:
// O(n log n) for the whole tuple set at one α. See PRFeChainDP for the
// Θ(n³) rank-distribution reference it is certified against.
func (pc *PreparedChain) PRFe(alpha complex128) []complex128 {
	out := make([]complex128, pc.Len())
	e := pc.getEval()
	pc.prfeInto(e, alpha, out)
	pc.putEval(e)
	return out
}

// prfeBatchCtx evaluates PRFe for every α of a grid, fanning the grid
// across GOMAXPROCS goroutines with one pooled product tree per worker and
// honoring cancellation between grid points. out[a] equals PRFe(alphas[a])
// bit-for-bit.
func (pc *PreparedChain) prfeBatchCtx(ctx context.Context, alphas []complex128) ([][]complex128, error) {
	out := make([][]complex128, len(alphas))
	workers := par.Workers(len(alphas))
	evals := make([]*chainEval, workers)
	err := par.ForWorkersCtx(ctx, workers, len(alphas), func(w, a int) {
		if evals[w] == nil {
			evals[w] = pc.getEval()
		}
		row := make([]complex128, pc.Len())
		pc.prfeInto(evals[w], alphas[a], row)
		out[a] = row
	})
	for _, e := range evals {
		if e != nil {
			pc.putEval(e)
		}
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RankPRFe returns the PRFe(α) ranking of the chain's tuples for real α,
// ranking by |Υ|.
func (pc *PreparedChain) RankPRFe(alpha float64) pdb.Ranking {
	return pdb.RankByAbs(pc.PRFe(complex(alpha, 0)))
}

// rankBatchCtx is the cancellation-aware per-α ranking loop shared by the
// full-ranking and top-k batch paths.
func (pc *PreparedChain) rankBatchCtx(ctx context.Context, alphas []float64, emit func(a int, r pdb.Ranking)) error {
	workers := par.Workers(len(alphas))
	evals := make([]*chainEval, workers)
	vals := make([][]complex128, workers)
	err := par.ForWorkersCtx(ctx, workers, len(alphas), func(w, a int) {
		if evals[w] == nil {
			evals[w] = pc.getEval()
			vals[w] = make([]complex128, pc.Len())
		}
		pc.prfeInto(evals[w], complex(alphas[a], 0), vals[w])
		emit(a, pdb.RankByAbs(vals[w]))
	})
	for _, e := range evals {
		if e != nil {
			pc.putEval(e)
		}
	}
	return err
}
