package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %g, want 5", got)
	}
	if got := Variance(xs); !almostEq(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %g, want %g", got, 32.0/7.0)
	}
	if got := StdDev(xs); !almostEq(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev = %g", got)
	}
}

func TestMeanVarianceEdgeCases(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Variance([]float64{3}) != 0 {
		t.Error("Variance of single sample != 0")
	}
}

// TestQuantileKnownValues pins the type-7 formula (linear interpolation
// between order statistics) the bootstrap reads its replicates and its
// confidence interval with.
func TestQuantileKnownValues(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {1.0 / 3.0, 2},
	}
	for _, tt := range tests {
		if got := quantileSorted(xs, tt.q); !almostEq(got, tt.want, 1e-9) {
			t.Errorf("quantileSorted(%g) = %g, want %g", tt.q, got, tt.want)
		}
	}
}

func TestQuantileSingleSample(t *testing.T) {
	if got := quantileSorted([]float64{42}, 0.8); got != 42 {
		t.Fatalf("quantileSorted single sample = %g", got)
	}
}

func TestBootstrapQuantileRecoversPercentile(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	// Uniform [0, 100): the 80th percentile is ~80.
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	r, err := BootstrapQuantileWith(nil, xs, 0.8, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r.Estimate, 80, 3) {
		t.Errorf("bootstrap P80 estimate = %g, want ≈80", r.Estimate)
	}
	if r.Lo > r.Estimate || r.Hi < r.Estimate {
		t.Errorf("CI [%g,%g] does not contain estimate %g", r.Lo, r.Hi, r.Estimate)
	}
}

func TestBootstrapQuantileErrors(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	if _, err := BootstrapQuantileWith(nil, nil, 0.8, 10, rng); err == nil {
		t.Error("empty sample did not error")
	}
	if _, err := BootstrapQuantileWith(nil, []float64{1}, 1.2, 10, rng); err == nil {
		t.Error("alpha > 1 did not error")
	}
	if _, err := BootstrapQuantileWith(nil, []float64{1}, 0.8, 0, rng); err == nil {
		t.Error("b = 0 did not error")
	}
}

func TestBootstrapDeterministicWithSeededRNG(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7, 2, 8}
	a, err := BootstrapQuantileWith(nil, xs, 0.8, 50, rand.New(rand.NewPCG(7, 7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := BootstrapQuantileWith(nil, xs, 0.8, 50, rand.New(rand.NewPCG(7, 7)))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same-seed bootstrap differs: %+v vs %+v", a, b)
	}
}

func TestJainIndex(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"equal", []float64{3, 3, 3, 3}, 1},
		{"single non-zero", []float64{4, 0, 0, 0}, 0.25},
		{"all zero", []float64{0, 0}, 1},
		{"empty", nil, 1},
		{"two-one", []float64{2, 1}, 0.9},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := JainIndex(tt.xs); !almostEq(got, tt.want, 1e-9) {
				t.Fatalf("JainIndex(%v) = %g, want %g", tt.xs, got, tt.want)
			}
		})
	}
}

// Property: Jain index is scale-invariant and within [1/n, 1] for non-zero
// non-negative inputs.
func TestJainIndexProperties(t *testing.T) {
	f := func(raw []uint8, scaleRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		any := false
		for i, r := range raw {
			xs[i] = float64(r)
			if r != 0 {
				any = true
			}
		}
		if !any {
			return JainIndex(xs) == 1
		}
		j := JainIndex(xs)
		if j < 1/float64(len(xs))-1e-9 || j > 1+1e-9 {
			return false
		}
		scale := 1 + float64(scaleRaw)
		scaled := make([]float64, len(xs))
		for i := range xs {
			scaled[i] = xs[i] * scale
		}
		return almostEq(JainIndex(scaled), j, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBalanceIndex(t *testing.T) {
	// Three DCs: one perfectly balanced (index 1), one fully skewed
	// (index 1/2 with 2 apps), one without rejections (contributes 0
	// under the 0/0→0 convention of Eq. 20), weighted by request counts.
	samples := []BalanceSample{
		{Requests: 10, RejectedPerApp: []float64{5, 5}},
		{Requests: 30, RejectedPerApp: []float64{8, 0}},
		{Requests: 20, RejectedPerApp: []float64{0, 0}},
	}
	want := (10.0*1 + 30.0*0.5 + 20.0*0) / 60.0
	if got := BalanceIndex(samples); !almostEq(got, want, 1e-9) {
		t.Fatalf("BalanceIndex = %g, want %g", got, want)
	}
}

func TestBalanceIndexDegenerate(t *testing.T) {
	if got := BalanceIndex(nil); got != 1 {
		t.Errorf("BalanceIndex(nil) = %g, want 1", got)
	}
	if got := BalanceIndex([]BalanceSample{{Requests: 0, RejectedPerApp: []float64{1}}}); got != 1 {
		t.Errorf("BalanceIndex with zero-weight samples = %g, want 1", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{10, 12, 14})
	if s.N != 3 || s.Mean != 12 {
		t.Fatalf("Summary = %+v", s)
	}
	if s.Lo >= s.Mean || s.Hi <= s.Mean {
		t.Errorf("CI [%g,%g] does not bracket mean", s.Lo, s.Hi)
	}
	one := Summarize([]float64{5})
	if one.Lo != 5 || one.Hi != 5 {
		t.Errorf("single-sample CI should collapse to the point, got [%g,%g]", one.Lo, one.Hi)
	}
}
