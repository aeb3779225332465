package oracle

import (
	"context"
	"testing"

	"repro/internal/andxor"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/junction"
	"repro/internal/pdb"
)

// Fuzz harnesses: bytes decode into a small instance (n ≤ 8), the oracle
// enumerates it, and every backend for that correlation model must agree on
// a compact query battery. Go's fuzzer minimizes any failing input, so a
// counterexample arrives as a near-minimal instance. Each decoder is
// byte-monotone — dropping bytes yields a smaller valid instance — which is
// what makes the built-in shrinking effective.

// fuzzMaxTuples caps fuzz instances well under MaxTuples: enumeration stays
// trivial and the mutator explores shapes, not sizes.
const fuzzMaxTuples = 8

// fuzzProb maps one byte to an exactly-representable probability in [0, 1].
func fuzzProb(b byte) float64 { return float64(b) / 256 }

// fuzzScore maps one byte to a small score domain, forcing frequent ties.
func fuzzScore(b byte) float64 { return float64(b % 16) }

// fuzzQueries is the compact battery each fuzz iteration certifies: one
// complex-valued metric with its native ranking, plus every real-valued
// semantics.
func fuzzQueries(n int) []engine.Query {
	k := n/2 + 1
	return []engine.Query{
		{Metric: engine.MetricPRFe, Output: engine.OutputValues, Alpha: 0.85},
		{Metric: engine.MetricPRFe, Output: engine.OutputRanking, Alpha: 0.85},
		{Metric: engine.MetricPRFOmega, Output: engine.OutputValues, Weights: []float64{1, 0.5}},
		{Metric: engine.MetricPTh, Output: engine.OutputValues, H: k},
		{Metric: engine.MetricERank, Output: engine.OutputValues},
		{Metric: engine.MetricGlobalTopk, Output: engine.OutputValues, K: k},
		{Metric: engine.MetricExpectedRank, Output: engine.OutputValues},
		{Metric: engine.MetricMedianRank, Output: engine.OutputRanking},
	}
}

func fuzzCertify(t *testing.T, o *Oracle, backends map[string]engine.Ranker) {
	t.Helper()
	ctx := context.Background()
	for name, r := range backends {
		for _, q := range fuzzQueries(o.Len()) {
			if err := o.Certify(ctx, r, q); err != nil {
				t.Fatalf("%s: %v/%v: %v", name, q.Metric, q.Output, err)
			}
		}
	}
}

func FuzzOracleIndependent(f *testing.F) {
	f.Add([]byte{0x80, 0xff})
	f.Add([]byte{0x10, 0x00, 0x20, 0xff, 0x10, 0x80})
	f.Add([]byte{0x05, 0x40, 0x05, 0x40, 0x05, 0x40, 0x01, 0xc0})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 2
		if n == 0 || n > fuzzMaxTuples {
			t.Skip()
		}
		scores := make([]float64, n)
		probs := make([]float64, n)
		for i := 0; i < n; i++ {
			scores[i] = fuzzScore(data[2*i])
			probs[i] = fuzzProb(data[2*i+1])
		}
		d, err := pdb.NewDataset(scores, probs)
		if err != nil {
			t.Skip()
		}
		o, err := FromDataset(d)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := andxor.Independent(d)
		if err != nil {
			t.Fatal(err)
		}
		fuzzCertify(t, o, map[string]engine.Ranker{
			"core":   core.Prepare(d),
			"andxor": andxor.PrepareTree(tr),
		})
	})
}

func FuzzOracleXRelation(f *testing.F) {
	f.Add([]byte{1, 0x50, 0x80, 0x30, 0x40})
	f.Add([]byte{0, 0xff, 0xff, 1, 0x20, 0x20, 0x20, 0x20})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Stream of groups: one size byte (1–2 alternatives), then
		// (score, prob) byte pairs; probabilities are scaled by the group
		// size so each group's mass stays strictly under 1.
		var groups [][]andxor.Alternative
		total := 0
		for i := 0; i < len(data); {
			size := int(data[i])%2 + 1
			i++
			if total+size > fuzzMaxTuples || i+2*size > len(data) {
				break
			}
			alts := make([]andxor.Alternative, size)
			for a := range alts {
				alts[a] = andxor.Alternative{
					Score: fuzzScore(data[i]),
					Prob:  fuzzProb(data[i+1]) / float64(size),
				}
				i += 2
			}
			groups = append(groups, alts)
			total += size
		}
		if len(groups) == 0 {
			t.Skip()
		}
		tr, err := andxor.XTuples(groups)
		if err != nil {
			t.Skip()
		}
		o, err := FromTree(tr)
		if err != nil {
			t.Fatal(err)
		}
		fuzzCertify(t, o, map[string]engine.Ranker{
			"andxor": andxor.PrepareTree(tr),
		})
	})
}

func FuzzOracleChain(f *testing.F) {
	f.Add([]byte{0x80, 0x05, 0x40, 0x0a, 0xc0, 0x20})
	f.Add([]byte{0xff, 0x01, 0x00, 0x02, 0xff, 0xff, 0x03, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Layout: marginal byte, then per-variable (score, cond0, cond1)
		// triples; the first variable only consumes its score byte.
		if len(data) < 4 {
			t.Skip()
		}
		m0 := fuzzProb(data[0])
		rest := data[1:]
		var scores []float64
		var cond [][2]float64
		scores = append(scores, fuzzScore(rest[0]))
		for i := 1; i+2 < len(rest) && len(scores) < 6; i += 3 {
			scores = append(scores, fuzzScore(rest[i]))
			cond = append(cond, [2]float64{fuzzProb(rest[i+1]), fuzzProb(rest[i+2])})
		}
		if len(scores) < 2 {
			t.Skip()
		}
		c, err := makeChain(scores, m0, cond)
		if err != nil {
			t.Skip()
		}
		o, err := FromChain(c)
		if err != nil {
			t.Fatal(err)
		}
		net, err := c.Network()
		if err != nil {
			t.Fatal(err)
		}
		pn, err := junction.PrepareNetwork(net)
		if err != nil {
			t.Fatal(err)
		}
		fuzzCertify(t, o, map[string]engine.Ranker{
			"chain":   junction.PrepareChain(c),
			"network": pn,
		})
	})
}
