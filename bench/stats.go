package main

import (
	"math"
	"sort"
)

// median returns the middle of vals (mean of the two middle values for an
// even count). It sorts a copy; NaN for an empty input.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(vals, n=4) does (the "exclusive" method), so that
// -compare reproduces the driver's spread arithmetic. With fewer than two
// values both quartiles are the single value.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // i-th of the 4-quantile cut points
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of an
// ascending-sorted sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailLadder is the percentile ladder human-readable reports pick from.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// pickTail returns the highest percentile of ladder that still has at
// least ten samples beyond it in a sample of n, falling back to the
// ladder's first entry when none qualifies: a tail read off fewer than
// ten samples is one outlier, not a percentile.
func pickTail(n int, ladder []float64) float64 {
	best := ladder[0]
	for _, p := range ladder {
		if float64(n)*(1-p) >= 10-1e-6 { // 100 × (1 − 0.9) is 9.999999999999998
			best = p
		}
	}
	return best
}

// passPercentiles takes the median and the tail percentile of every
// pass's own sample and returns their medians over passes, with the pooled
// sample sorted. The percentile reported as the tail is the higher of the
// median and tail that the pooled sample has ten values beyond.
func passPercentiles(passes [][]float64, tail float64) (pooled []float64, p50, tailValue float64) {
	for _, pass := range passes {
		pooled = append(pooled, pass...)
	}
	sort.Float64s(pooled)
	at := pickTail(len(pooled), []float64{0.5, tail})
	var p50s, tails []float64
	for _, pass := range passes {
		s := sortedCopy(pass)
		p50s, tails = append(p50s, percentile(s, 0.5)), append(tails, percentile(s, at))
	}
	return pooled, median(p50s), median(tails)
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}
