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
	s, classes := historyInstance(b, topo.Random100, 4)
	opts := DefaultOptions()
	opts.MaxPricingRounds = 1
	return s, classes, opts
}

// historyInstance returns a fresh Solver on topology name (built with
// seed) and the classes aggregated from a 150-slot MMPP history at 1.4
// utilization, every draw seeded from seed.
func historyInstance(tb testing.TB, name topo.Name, seed uint64) (*Solver, []Class) {
	tb.Helper()
	g := topo.MustBuild(name, seed)
	rng := rand.New(rand.NewPCG(seed, 1234))
	apps := vnet.DefaultMix(vnet.DefaultParams(), rng)
	wp := workload.DefaultParams().WithUtilization(1.4)
	wp.Slots = 150
	tr, err := workload.GenerateMMPP(g, wp, rng)
	if err != nil {
		tb.Fatal(err)
	}
	classes, err := Aggregate(tr, len(apps), 0.8, 100, rand.New(rand.NewPCG(seed+1, 1234)))
	if err != nil {
		tb.Fatal(err)
	}
	return NewSolver(g, apps), classes
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
