package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// bootstrapQuantileReference is BootstrapQuantileWith as it stood before
// the rank-count rewrite, verbatim (quantile formula included): it
// materializes and sorts every resample. It is the differential oracle.
func bootstrapQuantileReference(xs []float64, alpha float64, b int, rng *rand.Rand) BootstrapResult {
	quantileSorted := func(s []float64, q float64) float64 {
		if len(s) == 1 {
			return s[0]
		}
		h := q * float64(len(s)-1)
		lo := int(math.Floor(h))
		hi := lo + 1
		if hi >= len(s) {
			return s[len(s)-1]
		}
		frac := h - float64(lo)
		return s[lo]*(1-frac) + s[hi]*frac
	}
	reps := make([]float64, b)
	resample := make([]float64, len(xs))
	for i := 0; i < b; i++ {
		for j := range resample {
			resample[j] = xs[rng.IntN(len(xs))]
		}
		sort.Float64s(resample)
		reps[i] = quantileSorted(resample, alpha)
	}
	sort.Float64s(reps)
	return BootstrapResult{
		Estimate: Mean(reps),
		Lo:       quantileSorted(reps, 0.025),
		Hi:       quantileSorted(reps, 0.975),
	}
}

// TestBootstrapMatchesReference: the rank-count bootstrap must return the
// reference's three numbers bit for bit and leave the rng where the
// reference leaves it, whatever the sample looks like.
func TestBootstrapMatchesReference(t *testing.T) {
	gen := rand.New(rand.NewPCG(16, 3))
	var sc BootstrapScratch // shared: sizes go up and down across cases
	cases := 0
	for trial := 0; trial < 120; trial++ {
		n := 1 + gen.IntN(300)
		xs := make([]float64, n)
		for i := range xs {
			switch trial % 4 {
			case 0: // continuous
				xs[i] = gen.NormFloat64() * 10
			case 1: // heavy ties: a handful of distinct levels
				xs[i] = float64(gen.IntN(4))
			case 2: // a demand series: long flat stretches, some zero
				if i > 0 && gen.Float64() < 0.8 {
					xs[i] = xs[i-1]
				} else {
					xs[i] = math.Max(0, gen.NormFloat64()*5+3)
				}
			default: // constant
				xs[i] = 7.25
			}
		}
		for _, alpha := range []float64{0, 0.025, 0.8, 0.975, 1} {
			for _, b := range []int{1, 100} {
				seed := gen.Uint64()
				rngGot, rngWant := rand.New(rand.NewPCG(seed, 9)), rand.New(rand.NewPCG(seed, 9))
				scratch := &sc
				if cases%3 == 0 {
					scratch = nil
				}
				got, err := BootstrapQuantileWith(scratch, xs, alpha, b, rngGot)
				if err != nil {
					t.Fatal(err)
				}
				want := bootstrapQuantileReference(xs, alpha, b, rngWant)
				for _, f := range []struct {
					name      string
					got, want float64
				}{{"Estimate", got.Estimate, want.Estimate}, {"Lo", got.Lo, want.Lo}, {"Hi", got.Hi, want.Hi}} {
					if math.Float64bits(f.got) != math.Float64bits(f.want) {
						t.Fatalf("trial %d n=%d α=%g B=%d: %s = %x (%g), reference %x (%g)", trial, n, alpha, b,
							f.name, math.Float64bits(f.got), f.got, math.Float64bits(f.want), f.want)
					}
				}
				if g, w := rngGot.Uint64(), rngWant.Uint64(); g != w {
					t.Fatalf("trial %d n=%d α=%g B=%d: rng left in a different state", trial, n, alpha, b)
				}
				cases++
			}
		}
	}
}

// BenchmarkBootstrapQuantile is one class of plan.Aggregate at the
// benchmark's shape: a 200-slot series, B=100, α=0.8, warm scratch.
func BenchmarkBootstrapQuantile(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = math.Max(0, rng.NormFloat64()*20+50)
	}
	var sc BootstrapScratch
	if _, err := BootstrapQuantileWith(&sc, xs, 0.8, 100, rng); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BootstrapQuantileWith(&sc, xs, 0.8, 100, rng); err != nil {
			b.Fatal(err)
		}
	}
}
