package eval

// The external tests (oracle_test.go, which imports the oracle package and so
// cannot be part of this one) share these helpers.
var (
	MustQuery   = mustQuery
	RandomGraph = randomGraph
	RandomQuery = randomQuery
)
