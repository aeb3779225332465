package junction

import (
	"errors"
	"fmt" //lint:allow kernelpurity fmt.Errorf/Sprintf on construction and validation paths only; no formatting in the per-tuple inner loops
	"math"

	"repro/internal/pdb"
)

// Chain is the Section 9.3 special case: a Markov chain Y_0 … Y_{n−1} of
// binary tuple-presence variables described by calibrated pairwise joints —
// exactly the junction tree of a chain-shaped Markov network, whose cliques
// are the consecutive pairs.
type Chain struct {
	scores []float64
	// pair[j][a][b] = Pr(Y_j = a ∧ Y_{j+1} = b).
	pair [][2][2]float64
}

// NewChain validates the pairwise joints: each table must be a distribution,
// and adjacent tables must agree on the shared marginal (calibration).
func NewChain(scores []float64, pair [][2][2]float64) (*Chain, error) {
	n := len(scores)
	if n < 2 {
		return nil, errors.New("junction: chain needs at least two variables")
	}
	if len(pair) != n-1 {
		return nil, fmt.Errorf("junction: %d variables need %d pairwise joints, got %d", n, n-1, len(pair))
	}
	for j, t := range pair {
		var sum float64
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				if t[a][b] < 0 || math.IsNaN(t[a][b]) {
					return nil, fmt.Errorf("junction: pair %d has invalid entry %v", j, t[a][b])
				}
				sum += t[a][b]
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			return nil, fmt.Errorf("junction: pair %d sums to %v, want 1", j, sum)
		}
	}
	for j := 0; j+1 < len(pair); j++ {
		for b := 0; b < 2; b++ {
			right := pair[j][0][b] + pair[j][1][b]
			left := pair[j+1][b][0] + pair[j+1][b][1]
			if math.Abs(right-left) > 1e-9 {
				return nil, fmt.Errorf("junction: pairs %d and %d disagree on Pr(Y_%d=%d): %v vs %v",
					j, j+1, j+1, b, right, left)
			}
		}
	}
	return &Chain{scores: scores, pair: pair}, nil
}

// Len returns the number of variables.
func (c *Chain) Len() int { return len(c.scores) }

// Score returns variable i's ranking score.
func (c *Chain) Score(i int) float64 { return c.scores[i] }

// PairJoint returns the calibrated pairwise joint Pr(Y_j = a ∧ Y_{j+1} = b)
// as validated by NewChain. The enumeration oracle rebuilds world
// probabilities from these joints from first principles, independent of
// every chain kernel.
func (c *Chain) PairJoint(j int) [2][2]float64 { return c.pair[j] }

// Network converts the chain into a general Markov network (first joint as a
// pairwise factor, then conditionals), for cross-checking against the
// generic junction-tree pipeline.
func (c *Chain) Network() (*Network, error) {
	n := len(c.scores)
	factors := make([]Factor, 0, n-1)
	// Factor over (Y_0, Y_1): the joint itself. Table bit 0 ↦ Y_0.
	t0 := c.pair[0]
	factors = append(factors, Factor{
		Vars:  []int{0, 1},
		Table: []float64{t0[0][0], t0[1][0], t0[0][1], t0[1][1]},
	})
	for j := 1; j < n-1; j++ {
		// Conditional Pr(Y_{j+1} | Y_j) from the calibrated joint.
		m := [2]float64{c.pair[j][0][0] + c.pair[j][0][1], c.pair[j][1][0] + c.pair[j][1][1]}
		tbl := make([]float64, 4)
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				if m[a] > 0 {
					tbl[a+2*b] = c.pair[j][a][b] / m[a]
				}
			}
		}
		factors = append(factors, Factor{Vars: []int{j, j + 1}, Table: tbl})
	}
	return NewNetwork(c.scores, factors)
}

// RankDistribution computes the positional probabilities with the direct
// Section 9.3 chain dynamic program: O(n²) per tuple, O(n³) total. It
// returns a fresh matrix on every call; PreparedChain caches one.
func (c *Chain) RankDistribution() *pdb.RankDistribution {
	return PrepareChain(c).rankDistribution()
}

// sumRows is the scratch of the partial-sum DP: two reusable pairs of rows,
// g[y][p] = Pr(Y_j = y ∧ Σ_{marked u < j} Y_u = p ∧ evidence) for the
// current variable j and next[y] for variable j+1. Each row holds the
// coefficients below the DP's limit.
type sumRows struct{ g, next [2][]float64 }

func newSumRows(limit int) *sumRows {
	buf := make([]float64, 4*limit)
	return &sumRows{
		g:    [2][]float64{buf[:limit:limit], buf[limit : 2*limit : 2*limit]},
		next: [2][]float64{buf[2*limit : 3*limit : 3*limit], buf[3*limit:]},
	}
}

// partialSums is the Section 9.3 partial-sum DP along the chain:
//
//	out[p] = Pr(Y_target = 1 ∧ Σ_{u marked} Y_u = p)   for p < len(out).
//
// Coefficient p of every row depends only on coefficients ≤ p of the row
// before it (a marked present variable shifts by one, nothing shifts
// down), so computing the first len(out) coefficients and dropping the
// rest is exact: the result is bit-for-bit the prefix of the full DP.
// Rows carry a width w — every coefficient at p ≥ w is zero — which grows
// by one per marked variable up to the limit, so the cost is
// O(n·min(len(out), marked+1)) with no allocation; rows is caller-owned
// scratch sized for at least len(out) coefficients.
func (pc *PreparedChain) partialSums(target int, marked []bool, out []float64, rows *sumRows) {
	n, limit := pc.Len(), len(out)
	g, next := rows.g, rows.next
	g[0][0], g[1][0] = pc.m[0][0], pc.m[0][1]
	if target == 0 {
		g[0][0] = 0 // evidence Y_target = 1
	}
	w := 1
	for j := 0; j < n-1; j++ {
		// Fold Y_j's marked contribution while transitioning out of it.
		w2 := w
		if marked[j] && w < limit {
			w2++
		}
		for yn := 0; yn < 2; yn++ {
			dst := next[yn][:w2]
			clear(dst)
			for y := 0; y < 2; y++ {
				// Zero marginals have zero conditional rows (PrepareChain).
				cond := pc.cond[j][y][yn]
				if cond == 0 {
					continue
				}
				if y == 1 && marked[j] {
					for p, x := range g[y][:w2-1] {
						dst[p+1] += x * cond
					}
				} else {
					for p, x := range g[y][:w] {
						dst[p] += x * cond
					}
				}
			}
		}
		if target == j+1 {
			clear(next[0][:w2])
		}
		g, next = next, g
		w = w2
	}
	// Fold the last variable's marked contribution and sum out.
	clear(out)
	copy(out, g[0][:w])
	shift := 0
	if marked[n-1] {
		shift = 1
	}
	for p, x := range g[1][:min(w, limit-shift)] {
		out[p+shift] += x
	}
}

// rankDistribution builds the positional-probability matrix with the
// partial-sum DP: the tuple at score position i has i higher-ranked
// (marked) variables, so its row is the DP truncated to i+1 coefficients.
func (pc *PreparedChain) rankDistribution() *pdb.RankDistribution {
	n := pc.Len()
	dist := make([][]float64, n)
	buf := make([]float64, n*(n+1)/2)
	rows := newSumRows(n)
	marked := make([]bool, n)
	for i, v := range pc.order {
		row := buf[: i+1 : i+1]
		buf = buf[i+1:]
		pc.partialSums(v, marked, row, rows)
		dist[v] = row
		marked[v] = true
	}
	return &pdb.RankDistribution{Dist: dist}
}

// PRFeChain evaluates Υ_α per tuple. One-shot prepare-then-call wrapper over
// the PreparedChain product-tree algorithm (O(n log n) per α); the former
// Θ(n³) rank-distribution backend is kept as PRFeChainDP, the cross-check
// oracle and pre-optimization benchmark arm.
func PRFeChain(c *Chain, alpha complex128) []complex128 {
	return PrepareChain(c).PRFe(alpha)
}

// PRFeChainDP evaluates Υ_α per tuple with the Section 9.3 partial-sum DP:
// the full rank distribution (Θ(n³)) folded with powers of α. Kept as the
// reference kernel PreparedChain.PRFe is certified against, and as the
// baseline arm of the correlated benchmark workloads.
func PRFeChainDP(c *Chain, alpha complex128) []complex128 {
	rd := c.RankDistribution()
	out := make([]complex128, c.Len())
	for v := 0; v < c.Len(); v++ {
		out[v] = prfeFold(rd.Dist[v], alpha)
	}
	return out
}
