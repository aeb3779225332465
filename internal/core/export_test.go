package core

// Test helpers shared with the external core_test package, whose tests
// import internal/coreref (which imports core).
var (
	GnarlyDataset  = gnarlyDataset
	RandTerms      = randTerms
	RefPRFeCombo   = refPRFeCombo
	EqualComplexes = equalComplexes
	SameRanking    = sameRanking
)

const SpectrumEps = spectrumEps
