package benchwork

import "testing"

// The workload builders are driven by cmd/bench with user-supplied sizes;
// they must stay total for small n rather than panicking mid-benchmark.
func TestCrossingPairsSmallN(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 100} {
		pairs := crossingPairs(n, 8)
		if n < 2 && pairs != nil {
			t.Fatalf("n=%d: expected no pairs, got %v", n, pairs)
		}
		for _, p := range pairs {
			if p[0] < 0 || p[1] <= p[0] || p[1] >= n {
				t.Fatalf("n=%d: invalid pair %v", n, p)
			}
		}
	}
}

func TestMarkovChainCalibrated(t *testing.T) {
	c := markovChain(50)
	if c.Len() != 50 {
		t.Fatalf("chain length %d", c.Len())
	}
	// junction.NewChain validates calibration; reaching here means the
	// generated pairwise joints were consistent.
}
