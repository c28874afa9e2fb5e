// Package stats provides the statistical substrate of the reproduction:
// the bootstrap percentile estimation used by the time-aggregation step
// (paper §III-A), the rejection balance index of Eq. 20, and
// mean/confidence-interval summaries for repeated experiment runs.
package stats

import (
	"errors"
	"math"
	"math/rand/v2"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 for fewer than
// two samples).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// quantileSorted computes the type-7 quantile of an already-sorted sample.
func quantileSorted(s []float64, q float64) float64 {
	lo, hi, frac := quantilePos(len(s), q)
	if hi == lo {
		return s[lo]
	}
	return interpolate(s[lo], s[hi], frac)
}

// quantilePos locates the type-7 q-quantile of a sorted sample of size
// n: frac of the way from order statistic lo to order statistic hi =
// lo+1, or exactly the last one (hi == lo) when q reaches past it.
func quantilePos(n int, q float64) (lo, hi int, frac float64) {
	h := q * float64(n-1)
	lo = int(math.Floor(h))
	if lo+1 >= n {
		return n - 1, n - 1, 0
	}
	return lo, lo + 1, h - float64(lo)
}

func interpolate(a, b, frac float64) float64 { return a*(1-frac) + b*frac }

// BootstrapResult carries a bootstrap percentile estimate with its 95%
// confidence interval (percentile method, DiCiccio & Efron).
type BootstrapResult struct {
	// Estimate is the mean of the bootstrap replicates of P̂α.
	Estimate float64
	// Lo, Hi bound the 95% confidence interval of P̂α.
	Lo, Hi float64
}

// BootstrapScratch holds the reusable buffers of BootstrapQuantileWith.
// The zero value is ready to use.
type BootstrapScratch struct {
	reps, sorted []float64
	rank, count  []int
}

func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// BootstrapQuantileWith estimates the α-quantile of the distribution
// behind sample xs by bootstrapping: b resamples with replacement, the
// α-quantile of each, percentile-method CI over the replicates. This is
// the estimator the paper uses for the expected aggregated demand P̂80
// (§III-A). sc holds the buffers, so a loop that estimates many series
// back to back allocates once; a nil sc allocates fresh buffers, with
// the same rng draws and result.
//
// A replicate is never materialized, let alone sorted: the sample is
// sorted once, each of a replicate's len(xs) draws bumps the count of
// the drawn element's rank, and one walk over the counts finds the two
// order statistics the type-7 quantile interpolates between. The draws
// and the arithmetic are those of sorting every resample, at O(n) per
// replicate instead of O(n log n).
//
//olive:hotpath B·len(xs) draws per class, ~190 classes per plan
func BootstrapQuantileWith(sc *BootstrapScratch, xs []float64, alpha float64, b int, rng *rand.Rand) (BootstrapResult, error) {
	if len(xs) == 0 {
		return BootstrapResult{}, errors.New("stats: bootstrap of empty sample")
	}
	if alpha < 0 || alpha > 1 {
		return BootstrapResult{}, errors.New("stats: bootstrap quantile level outside [0,1]")
	}
	if b <= 0 {
		return BootstrapResult{}, errors.New("stats: bootstrap needs at least one replicate")
	}
	if sc == nil {
		sc = &BootstrapScratch{}
	}
	n := len(xs)
	sc.reps = grown(sc.reps, b)
	sc.sorted = grown(sc.sorted, n)
	sc.rank = grown(sc.rank, n)
	sc.count = grown(sc.count, n)
	reps, sorted, rank, count := sc.reps, sc.sorted, sc.rank, sc.count
	copy(sorted, xs)
	sort.Float64s(sorted)
	// rank[j] is a position of xs[j] in sorted. Equal values share the
	// first of theirs, which is as good as any: they are interchangeable
	// in a sorted resample (down to the sign of a zero, if a sample
	// mixes −0 and +0).
	for j, x := range xs {
		rank[j] = sort.SearchFloat64s(sorted, x) % n // a NaN finds no place; NaNs sort first
	}
	lo, hi, frac := quantilePos(n, alpha)
	for i := 0; i < b; i++ {
		clear(count)
		for j := 0; j < n; j++ {
			count[rank[rng.IntN(n)]]++
		}
		// The replicate's k-th order statistic is sorted[r] for the
		// first r whose counts sum past k.
		r, cum := 0, count[0]
		for cum <= lo {
			r++
			cum += count[r]
		}
		reps[i] = sorted[r]
		if hi != lo {
			for cum <= hi {
				r++
				cum += count[r]
			}
			reps[i] = interpolate(reps[i], sorted[r], frac)
		}
	}
	sort.Float64s(reps)
	return BootstrapResult{
		Estimate: Mean(reps),
		Lo:       quantileSorted(reps, 0.025),
		Hi:       quantileSorted(reps, 0.975),
	}, nil
}

// JainIndex returns Jain's fairness index of xs: (Σx)² / (n·Σx²).
// It is 1 for perfectly equal values, 1/n for a single non-zero value,
// and 1 (perfect) for an all-zero vector, which represents "no rejections
// anywhere" in the balance-index application.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// BalanceSample is one datacenter's rejection profile for the rejection
// balance index of Eq. 20.
type BalanceSample struct {
	// Requests is n(v): the number of requests that arrived at the
	// datacenter.
	Requests int
	// RejectedPerApp is x_va: rejected request counts per application.
	RejectedPerApp []float64
}

// BalanceIndex computes the paper's rejection balance index (Eq. 20): a
// per-datacenter Jain index over per-application rejection counts x_va,
// averaged over datacenters weighted by request count n(v). The formula's
// 0/0 case — a datacenter with no rejections at all — contributes 0, the
// literal evaluation of (Σx)²/(|A|·Σx²) under the 0/0→0 convention. This
// makes the index reward both evenness *and* coverage: an algorithm that
// rejects evenly at every constrained datacenter (OLIVE with quantiles)
// scores high, one whose rejections concentrate on a few saturated
// datacenters (QUICKG) scores low — matching the orderings of Fig. 11.
func BalanceIndex(samples []BalanceSample) float64 {
	var wSum, acc float64
	for _, s := range samples {
		if s.Requests == 0 || len(s.RejectedPerApp) == 0 {
			continue
		}
		w := float64(s.Requests)
		wSum += w
		allZero := true
		for _, x := range s.RejectedPerApp {
			if x != 0 {
				allZero = false
				break
			}
		}
		if !allZero {
			acc += w * JainIndex(s.RejectedPerApp)
		}
	}
	if wSum == 0 {
		return 1
	}
	return acc / wSum
}

// Summary aggregates repeated measurements of one metric.
type Summary struct {
	N    int
	Mean float64
	Std  float64
	// Lo, Hi bound the 95% confidence interval of the mean (normal
	// approximation, z = 1.96).
	Lo, Hi float64
}

// Summarize computes the mean and 95% CI of repeated runs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs), Mean: Mean(xs), Std: StdDev(xs)}
	if s.N > 1 {
		half := 1.96 * s.Std / math.Sqrt(float64(s.N))
		s.Lo, s.Hi = s.Mean-half, s.Mean+half
	} else {
		s.Lo, s.Hi = s.Mean, s.Mean
	}
	return s
}
