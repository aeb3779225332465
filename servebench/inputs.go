package main

// Seeded input files. Every dataset the benchmark serves is generated here
// from --seed as the raw bytes a user would upload (CSV or JSON), so the
// program under test receives only files and the same seed always yields
// the same bytes.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
)

// Dataset names as the server knows them.
const (
	dsBig       = "ind100k" // PRFe ranks and sweeps; refreshed by refresh-mixed
	dsStream    = "ind10k"  // streamed sweeps
	dsConsensus = "ind2k"   // Expected-Rank, Median-Rank, Global-Topk
	dsXRel      = "xrel5k"  // x-relation PRFe
	dsChain     = "chain"   // Markov-chain PRFe and PT(h); refreshed by refresh-mixed
)

// sizes fixes the dataset sizes; smoke tests shrink them.
type sizes struct {
	big, stream, consensus, xrel, chain int
}

var fullSizes = sizes{big: 100_000, stream: 10_000, consensus: 2_000, xrel: 5_000, chain: 200}

// inputFile is one generated dataset file: its bytes until writeInputs
// stores them, its path after.
type inputFile struct {
	name, kind string
	body       []byte
	path       string
}

// genInputs builds every dataset file for one seed, in ingest order.
func genInputs(seed int64, sz sizes) []inputFile {
	rng := rand.New(rand.NewSource(seed))
	return []inputFile{
		{name: dsBig, kind: "ind", body: genIndependent(rng, sz.big)},
		{name: dsStream, kind: "ind", body: genIndependent(rng, sz.stream)},
		{name: dsConsensus, kind: "ind", body: genIndependent(rng, sz.consensus)},
		{name: dsXRel, kind: "xrel", body: genXRelation(rng, sz.xrel)},
		{name: dsChain, kind: "chain", body: genChain(rng, sz.chain)},
	}
}

// genIndependent writes n score,probability rows: scores from a mixture of
// exponentials (most small, a long tail) with three decimals, so some
// scores tie; probabilities uniform in [0.01, 0.99] with four decimals.
func genIndependent(rng *rand.Rand, n int) []byte {
	buf := make([]byte, 0, n*18)
	buf = append(buf, "score,prob\n"...)
	for i := 0; i < n; i++ {
		mean := 30.0
		if rng.Float64() < 0.1 {
			mean = 400
		}
		buf = strconv.AppendFloat(buf, rng.ExpFloat64()*mean, 'f', 3, 64)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, 0.01+0.98*rng.Float64(), 'f', 4, 64)
		buf = append(buf, '\n')
	}
	return buf
}

// genXRelation writes n score,probability,group rows in x-tuples of one to
// five mutually exclusive alternatives. Each x-tuple's probabilities are
// rounded down to four decimals, so they never sum past its drawn total
// in [0.5, 1].
func genXRelation(rng *rand.Rand, n int) []byte {
	buf := make([]byte, 0, n*24)
	for g, left := 0, n; left > 0; g++ {
		size := min(1+rng.Intn(5), left)
		left -= size
		w := make([]float64, size)
		var sum float64
		for i := range w {
			w[i] = 0.1 + rng.Float64()
			sum += w[i]
		}
		total := 0.5 + 0.5*rng.Float64()
		for i := range w {
			p := max(float64(int(w[i]/sum*total*1e4))/1e4, 1e-4)
			buf = strconv.AppendFloat(buf, rng.Float64()*10_000, 'f', 2, 64)
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, p, 'f', 4, 64)
			buf = fmt.Appendf(buf, ",g%d\n", g)
		}
	}
	return buf
}

// genChain writes a calibrated n-variable Markov chain of presence
// indicators: each pairwise joint Pr(Y_j, Y_j+1) is built from seeded
// transition probabilities and the running marginal, so adjacent joints
// agree on their shared variable.
func genChain(rng *rand.Rand, n int) []byte {
	spec := struct {
		Scores []float64       `json:"scores"`
		Pairs  [][2][2]float64 `json:"pairs"`
	}{Scores: make([]float64, n), Pairs: make([][2][2]float64, n-1)}
	for i := range spec.Scores {
		spec.Scores[i] = rng.Float64() * 10_000
	}
	m := 0.6 // Pr(Y_j = 1)
	for j := range spec.Pairs {
		q1 := 0.2 + 0.6*rng.Float64() // Pr(Y_j+1 = 1 | Y_j = 1)
		q0 := 0.2 + 0.6*rng.Float64() // Pr(Y_j+1 = 1 | Y_j = 0)
		spec.Pairs[j] = [2][2]float64{
			{(1 - m) * (1 - q0), (1 - m) * q0},
			{m * (1 - q1), m * q1},
		}
		m = m*q1 + (1-m)*q0
	}
	b, err := json.Marshal(spec)
	if err != nil {
		panic(err) // plain float slices always marshal
	}
	return b
}
