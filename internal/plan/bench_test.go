package plan

import (
	"math/rand/v2"
	"testing"

	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
	"github.com/olive-vne/olive/internal/workload"
)

// benchInstance builds the fig-scale master-problem instance: the
// Random100 topology at 1.4 utilization (the paper's hardest sweep
// point, and the regime that used to trigger the singular-basis
// failure), with one column-generation round per solve.
func benchInstance(b testing.TB) (*Solver, []Class, Options) {
	b.Helper()
	g := topo.MustBuild(topo.Random100, 4)
	rng := rand.New(rand.NewPCG(4, 1234))
	apps := vnet.DefaultMix(vnet.DefaultParams(), rng)
	wp := workload.DefaultParams().WithUtilization(1.4)
	wp.Slots = 150
	tr, err := workload.GenerateMMPP(g, wp, rng)
	if err != nil {
		b.Fatal(err)
	}
	classes, err := Aggregate(tr, len(apps), 0.8, 100, rand.New(rand.NewPCG(5, 1234)))
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions()
	opts.MaxPricingRounds = 1
	return NewSolver(g, apps), classes, opts
}

// BenchmarkPlanSolve measures one column-generation round at fig-scale m
// on the default (warm-started) path; its allocs/op is pinned in
// testdata/bench_baseline.json under the CI regression guard. Iteration
// counts are reported as pivots/op: with the solver's basis memory and
// column pool active, repeat solves should beat the cold baseline below
// by well over 2×.
func BenchmarkPlanSolve(b *testing.B) {
	solver, classes, opts := benchInstance(b)
	// Populate the solver's basis memory and column pool before the
	// timer starts, so even a -benchtime=1x run (the CI guard) measures
	// the warm-started path — the production regime, where SLOTOFF and
	// windowed Builds always follow an earlier Build on the same solver.
	if _, err := solver.Build(classes, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var pivots int
	for i := 0; i < b.N; i++ {
		p, err := solver.Build(classes, opts)
		if err != nil {
			b.Fatal(err)
		}
		pivots += p.Iterations
	}
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
}

// BenchmarkPlanSolveCold is the ablation: identical instance with
// DisableWarmStarts, every master LP re-solved from a cold basis.
func BenchmarkPlanSolveCold(b *testing.B) {
	solver, classes, opts := benchInstance(b)
	opts.DisableWarmStarts = true
	b.ReportAllocs()
	b.ResetTimer()
	var pivots int
	for i := 0; i < b.N; i++ {
		p, err := solver.Build(classes, opts)
		if err != nil {
			b.Fatal(err)
		}
		pivots += p.Iterations
	}
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
}
