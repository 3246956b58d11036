package main

import (
	"math"
	"sort"
)

// median returns the middle of vs (the mean of the two middle values for an
// even count). vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted: the
// smallest sample with at least a share p of the samples at or below it.
func percentile(sorted []int64, p float64) int64 {
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vs, n=4) gives them (the exclusive method): the
// builder's contract measures run-to-run spread with exactly that function.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 { // i-th quartile, i in 1..3
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of vs as a share of their median.
func spread(vs []float64) float64 {
	q1, q3 := quartiles(vs)
	return (q3 - q1) / median(vs)
}
