package main

import (
	"math"
	"testing"
)

func TestPickTailWantsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99},
		{9999, 0.99}, {10000, 0.999}, {100000, 0.9999}, {5000000, 0.9999},
	} {
		if got := pickTail(c.n, tailLadder); got != c.want {
			t.Errorf("pickTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// op_tail_us asks for a workload's percentile or, short of samples,
	// the median.
	if got := pickTail(960, []float64{0.5, 0.99}); got != 0.5 {
		t.Errorf("960 samples: tail %g, want the median", got)
	}
	if got := pickTail(1280, []float64{0.5, 0.99}); got != 0.99 {
		t.Errorf("1280 samples: tail %g, want p99", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {0.999, 100}, {1, 100}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
}

// The expected values are what Python prints for
// statistics.quantiles(v, n=4) and statistics.median(v).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v           []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 3, 7, 1, 9}, 2, 7, 9.5},
		{[]float64{4, 8}, 3, 6, 9},
		{[]float64{1.5, 2.5, 4, 8, 16, 32, 64}, 2.5, 8, 32},
	} {
		q1, q3 := quartiles(c.v)
		if q1 != c.q1 || q3 != c.q3 || median(c.v) != c.med {
			t.Errorf("%v: q1 %g median %g q3 %g, want %g %g %g", c.v, q1, median(c.v), q3, c.q1, c.med, c.q3)
		}
	}
}

// One pass of five ran while the host was busy and took three times as
// long throughout: the pooled sample's 99th percentile is that pass's, the
// median over passes is not.
func TestPassPercentilesIgnoreOneSlowPass(t *testing.T) {
	quiet := make([]float64, 1000)
	for i := range quiet {
		quiet[i] = float64(i + 1)
	}
	passes := [][]float64{quiet, quiet, scaled(quiet, 3), quiet, quiet}
	pooled, p50, tail := passPercentiles(passes, 0.99)
	if len(pooled) != 5000 || p50 != 500 || tail != 990 {
		t.Errorf("pooled %d values, p50 %g, tail %g; want 5000, 500, 990", len(pooled), p50, tail)
	}
	if got := percentile(pooled, 0.99); got <= 2*tail {
		t.Errorf("pooled p99 %g: the slow pass was expected to own it", got)
	}
	// Too few values for a 99th percentile with ten beyond it: the median.
	if _, _, tail := passPercentiles([][]float64{quiet[:100], quiet[:100]}, 0.99); tail != 50 {
		t.Errorf("tail of 200 values %g, want the median 50", tail)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"same", steady, steady, "lower", 0.1, "within bound"},
		{"slower latency", steady, scaled(steady, 1.2), "lower", 0.1, "worse"},
		{"faster latency", steady, scaled(steady, 0.8), "lower", 0.1, "within bound"},
		{"lower throughput", steady, scaled(steady, 0.8), "higher", 0.1, "worse"},
		{"higher throughput", steady, scaled(steady, 1.2), "higher", 0.1, "within bound"},
		{"spread hides it", noisy, scaled(noisy, 1.2), "lower", 0.1, "unresolved"},
	} {
		if got, _, _ := verdict(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: %q, want %q", c.name, got, c.want)
		}
	}
}

func scaled(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}
