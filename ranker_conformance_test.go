// Conformance suite of the unified Ranker engine: for each of the four
// backends, Engine.Rank / Engine.RankBatch answers must be bit-for-bit
// identical to the per-backend one-shot and prepared kernels they dispatch
// to, called directly. The
// engine adds dispatch, validation and cancellation — never arithmetic —
// and this suite is the certificate. Run under -race (CI does) the parallel
// subtests additionally exercise concurrent batch queries over the shared
// views.
package prf_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	prf "repro"
	"repro/internal/andxor"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/junction"
)

// conformance bundles one backend's engine with closures over the kernels
// it must reproduce. Reference closures are nil where the backend has no
// kernel outside the engine (those capabilities are covered by
// cross-backend checks instead).
type conformance struct {
	name string
	eng  *prf.Engine
	n    int

	prfe     func(alpha complex128) []complex128
	rankPRFe func(alpha float64) prf.Ranking
	prfOmega func(w []float64) []float64
	pth      func(h int) []float64
	prfFn    func(omega prf.WeightFunc) []float64
	erank    func() []float64
	combo    func(terms []prf.ExpTerm) []complex128
}

func conformanceBackends(t *testing.T) []conformance {
	t.Helper()
	const n = 120
	d := datagen.IIPLike(n, 41)
	tree, err := datagen.SynXOR(n, 41)
	if err != nil {
		t.Fatal(err)
	}
	chain := datagen.MarkovChainLike(40, 41)
	net, err := chain.Network()
	if err != nil {
		t.Fatal(err)
	}
	netEng, err := prf.EngineForNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	preparedChain := junction.PrepareChain(chain)

	toTreeCombo := func(terms []prf.ExpTerm) (us, alphas []complex128) {
		us = make([]complex128, len(terms))
		alphas = make([]complex128, len(terms))
		for i, term := range terms {
			us[i], alphas[i] = term.U, term.Alpha
		}
		return us, alphas
	}
	return []conformance{
		{
			name:     "independent",
			eng:      prf.EngineFor(d),
			n:        d.Len(),
			prfe:     func(a complex128) []complex128 { return core.PRFe(d, a) },
			rankPRFe: func(a float64) prf.Ranking { return core.RankPRFe(d, a) },
			prfOmega: func(w []float64) []float64 { return core.PRFOmega(d, w) },
			pth:      func(h int) []float64 { return core.PTh(d, h) },
			prfFn:    func(omega prf.WeightFunc) []float64 { return core.PRF(d, omega) },
			erank:    func() []float64 { return prf.ERank(d) },
			combo:    func(terms []prf.ExpTerm) []complex128 { return core.PRFeCombo(d, terms) },
		},
		{
			name:     "tree",
			eng:      prf.EngineForTree(tree),
			n:        tree.Len(),
			prfe:     func(a complex128) []complex128 { return andxor.PRFeValues(tree, a) },
			rankPRFe: func(a float64) prf.Ranking { return andxor.RankPRFe(tree, a) },
			prfOmega: func(w []float64) []float64 { return andxor.PRFOmega(tree, w) },
			pth:      func(h int) []float64 { return andxor.PTh(tree, h) },
			prfFn: func(omega prf.WeightFunc) []float64 {
				return andxor.PRF(tree, omega)
			},
			erank: func() []float64 { return prf.TreeExpectedRanks(tree) },
			combo: func(terms []prf.ExpTerm) []complex128 {
				// Σ_l u_l·PRFe(α_l), summed per tuple in term order.
				us, alphas := toTreeCombo(terms)
				out := make([]complex128, tree.Len())
				for l := range us {
					for i, v := range andxor.PRFeValues(tree, alphas[l]) {
						out[i] += us[l] * v
					}
				}
				return out
			},
		},
		{
			name: "network",
			eng:  netEng,
			n:    net.Len(),
			prfe: func(a complex128) []complex128 {
				vals, err := junction.PRFe(net, a)
				if err != nil {
					t.Fatal(err)
				}
				return vals
			},
			rankPRFe: func(a float64) prf.Ranking {
				pn, err := junction.PrepareNetwork(net)
				if err != nil {
					t.Fatal(err)
				}
				return pn.RankPRFe(a)
			},
			prfFn: func(omega prf.WeightFunc) []float64 {
				pn, err := junction.PrepareNetwork(net)
				if err != nil {
					t.Fatal(err)
				}
				return pn.PRF(omega)
			},
			erank: func() []float64 {
				vals, err := prf.NetworkExpectedRanks(net)
				if err != nil {
					t.Fatal(err)
				}
				return vals
			},
		},
		{
			name: "chain",
			eng:  prf.EngineForChain(chain),
			n:    chain.Len(),
			prfe: func(a complex128) []complex128 { return junction.PRFeChain(chain, a) },
			rankPRFe: func(a float64) prf.Ranking {
				return preparedChain.RankPRFe(a)
			},
		},
	}
}

var conformanceTerms = []prf.ExpTerm{
	{U: 1, Alpha: complex(0.9, 0)},
	{U: complex(0.5, 0.2), Alpha: complex(0.6, 0.1)},
	{U: complex(-0.3, 0), Alpha: complex(0.4, 0)},
}

func TestEngineConformance(t *testing.T) {
	grids := map[string][]float64{
		"monotone":    {0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95, 1.0},
		"nonmonotone": {0.9, 0.1, 0.5, 0.5, 0.2},
	}
	for _, b := range conformanceBackends(t) {
		b := b
		t.Run(b.name, func(t *testing.T) {
			t.Parallel() // engines share nothing; -race covers concurrent use
			ctx := context.Background()

			t.Run("prfe-values", func(t *testing.T) {
				t.Parallel()
				for _, alpha := range []float64{0.1, 0.5, 0.95, 1.0} {
					res, err := b.eng.Rank(ctx, prf.Query{Metric: prf.MetricPRFe, Alpha: alpha})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res.Complex, b.prfe(complex(alpha, 0))) {
						t.Fatalf("PRFe values diverge from legacy at α=%v", alpha)
					}
				}
			})

			t.Run("prfe-rankings", func(t *testing.T) {
				t.Parallel()
				for _, alpha := range []float64{0.1, 0.5, 0.95, 1.0} {
					res, err := b.eng.Rank(ctx, prf.Query{
						Metric: prf.MetricPRFe, Alpha: alpha, Output: prf.OutputRanking,
					})
					if err != nil {
						t.Fatal(err)
					}
					want := b.rankPRFe(alpha)
					if !reflect.DeepEqual(res.Ranking, want) {
						t.Fatalf("PRFe ranking diverges from legacy at α=%v", alpha)
					}
					top, err := b.eng.Rank(ctx, prf.Query{
						Metric: prf.MetricPRFe, Alpha: alpha, Output: prf.OutputTopK, K: 7,
					})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(top.Ranking, want.TopK(7)) {
						t.Fatalf("PRFe top-k diverges from legacy at α=%v", alpha)
					}
				}
			})

			t.Run("prfe-batches", func(t *testing.T) {
				t.Parallel()
				for gname, grid := range grids {
					batch, err := b.eng.RankBatch(ctx, prf.Query{
						Metric: prf.MetricPRFe, Alphas: grid, Output: prf.OutputRanking,
					})
					if err != nil {
						t.Fatal(err)
					}
					for a, alpha := range grid {
						if !reflect.DeepEqual(batch[a].Ranking, b.rankPRFe(alpha)) {
							t.Fatalf("%s batch ranking diverges at α=%v", gname, alpha)
						}
					}
					tops, err := b.eng.RankBatch(ctx, prf.Query{
						Metric: prf.MetricPRFe, Alphas: grid, Output: prf.OutputTopK, K: 9,
					})
					if err != nil {
						t.Fatal(err)
					}
					for a, alpha := range grid {
						if !reflect.DeepEqual(tops[a].Ranking, b.rankPRFe(alpha).TopK(9)) {
							t.Fatalf("%s batch top-k diverges at α=%v", gname, alpha)
						}
					}
					vals, err := b.eng.RankBatch(ctx, prf.Query{
						Metric: prf.MetricPRFe, Alphas: grid, Output: prf.OutputValues,
					})
					if err != nil {
						t.Fatal(err)
					}
					for a, alpha := range grid {
						if !reflect.DeepEqual(vals[a].Complex, b.prfe(complex(alpha, 0))) {
							t.Fatalf("%s batch values diverge at α=%v", gname, alpha)
						}
					}
				}
			})

			t.Run("omega-family", func(t *testing.T) {
				t.Parallel()
				w := make([]float64, 20)
				for i := range w {
					w[i] = 1 / float64(i+1)
				}
				if b.prfOmega != nil {
					res, err := b.eng.Rank(ctx, prf.Query{Metric: prf.MetricPRFOmega, Weights: w})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res.Values, b.prfOmega(w)) {
						t.Fatal("PRFω values diverge from legacy")
					}
				}
				if b.pth != nil {
					res, err := b.eng.Rank(ctx, prf.Query{Metric: prf.MetricPTh, H: 10})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res.Values, b.pth(10)) {
						t.Fatal("PT(h) values diverge from legacy")
					}
				}
				if b.prfFn != nil {
					omega := func(tu prf.Tuple, rank int) float64 {
						return tu.Prob / float64(rank)
					}
					res, err := b.eng.Rank(ctx, prf.Query{Metric: prf.MetricPRF, Omega: omega})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res.Values, b.prfFn(omega)) {
						t.Fatal("PRF values diverge from legacy")
					}
				}
				if b.erank != nil {
					res, err := b.eng.Rank(ctx, prf.Query{Metric: prf.MetricERank, Output: prf.OutputRanking})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res.Ranking, prf.ERankRanking(b.erank())) {
						t.Fatal("E-Rank ranking diverges from legacy")
					}
				}
			})

			t.Run("combo", func(t *testing.T) {
				t.Parallel()
				if b.combo == nil {
					return
				}
				res, err := b.eng.Rank(ctx, prf.Query{Metric: prf.MetricPRFeCombo, Terms: conformanceTerms})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.Complex, b.combo(conformanceTerms)) {
					t.Fatal("PRFe-combo values diverge from legacy")
				}
				rk, err := b.eng.Rank(ctx, prf.Query{
					Metric: prf.MetricPRFeCombo, Terms: conformanceTerms, Output: prf.OutputRanking,
				})
				if err != nil {
					t.Fatal(err)
				}
				want := prf.RankByValue(prf.RealParts(b.combo(conformanceTerms)))
				if !reflect.DeepEqual(rk.Ranking, want) {
					t.Fatal("PRFe-combo ranking diverges from the real-part convention")
				}
			})
		})
	}
}

// TestChainOmegaFamilyAgainstNetwork cross-checks the chain backend's new
// ω-based capabilities (which fold the chain's own Θ(n³) rank-distribution
// DP) against the junction-tree backend on the equivalent network — two
// independent DP implementations that must agree to numerical precision.
func TestChainOmegaFamilyAgainstNetwork(t *testing.T) {
	chain := datagen.MarkovChainLike(28, 5)
	net, err := chain.Network()
	if err != nil {
		t.Fatal(err)
	}
	netEng, err := prf.EngineForNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	chainEng := prf.EngineForChain(chain)
	ctx := context.Background()

	queries := []prf.Query{
		{Metric: prf.MetricPTh, H: 5},
		{Metric: prf.MetricPRFOmega, Weights: []float64{1, 0.5, 0.25, 0.125}},
		{Metric: prf.MetricERank},
	}
	for _, q := range queries {
		cRes, err := chainEng.Rank(ctx, q)
		if err != nil {
			t.Fatalf("%v on chain: %v", q.Metric, err)
		}
		nRes, err := netEng.Rank(ctx, q)
		if err != nil {
			t.Fatalf("%v on network: %v", q.Metric, err)
		}
		for i := range cRes.Values {
			if math.Abs(cRes.Values[i]-nRes.Values[i]) > 1e-9 {
				t.Fatalf("%v: chain and network disagree at tuple %d: %v vs %v",
					q.Metric, i, cRes.Values[i], nRes.Values[i])
			}
		}
	}
}

// TestEngineBatchConcurrent hammers every backend with concurrent batch
// queries over one shared engine — the -race certificate for the pooled
// evaluation states behind the unified API.
func TestEngineBatchConcurrent(t *testing.T) {
	grid := []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.0}
	for _, b := range conformanceBackends(t) {
		b := b
		t.Run(b.name, func(t *testing.T) {
			t.Parallel()
			want, err := b.eng.RankBatch(context.Background(), prf.Query{
				Metric: prf.MetricPRFe, Alphas: grid, Output: prf.OutputRanking,
			})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 8)
			for g := 0; g < 8; g++ {
				go func() {
					got, err := b.eng.RankBatch(context.Background(), prf.Query{
						Metric: prf.MetricPRFe, Alphas: grid, Output: prf.OutputRanking,
					})
					if err == nil && !reflect.DeepEqual(got, want) {
						err = errConcurrentMismatch
					}
					done <- err
				}()
			}
			for g := 0; g < 8; g++ {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

var errConcurrentMismatch = errConst("concurrent batch diverged from serial answer")

type errConst string

func (e errConst) Error() string { return string(e) }
