package eval

// The external tests (oracle_test.go, which imports the oracle package and so
// cannot be part of this one) share these helpers.
var (
	MustQuery   = mustQuery
	RandomGraph = randomGraph
	RandomQuery = randomQuery
)

// SetValidateParallelThreshold makes extents of n members or more validate
// in parallel and returns the function that restores the threshold.
func SetValidateParallelThreshold(n int) (restore func()) {
	old := validateParallelThreshold
	validateParallelThreshold = n
	return func() { validateParallelThreshold = old }
}
