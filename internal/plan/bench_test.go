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

// BenchmarkPlanSolve measures one plan Build at fig-scale m, with one
// column-generation round, on a fresh Solver per op: the shape of a
// cold plan build, of the first Build in every SLOTOFF run and of a
// replanner's first rebuild. Its allocs/op, B/op and pivots/op (every
// master solve's, Plan.Iterations) are pinned in
// testdata/bench_baseline.json under the CI regression guard.
func BenchmarkPlanSolve(b *testing.B) {
	s, classes, opts := benchInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	var pivots int
	for i := 0; i < b.N; i++ {
		p, err := NewSolver(s.g, s.apps).Build(classes, opts)
		if err != nil {
			b.Fatal(err)
		}
		pivots += p.Iterations
	}
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
}
