package plan

import (
	"math"
	"testing"

	"github.com/olive-vne/olive/internal/lp"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
	"github.com/olive-vne/olive/internal/workload"
)

// warmScenario builds a mid-size instance for warm-start behavior tests.
func warmScenario(t *testing.T) (*Solver, []Class, Options) {
	t.Helper()
	g := topo.MustBuild(topo.CittaStudi, 9)
	rng := testRNG(9)
	apps := vnet.DefaultMix(vnet.DefaultParams(), rng)
	wp := workload.DefaultParams().WithUtilization(1.2)
	wp.Slots = 150
	tr, err := workload.GenerateMMPP(g, wp, rng)
	if err != nil {
		t.Fatal(err)
	}
	classes, err := Aggregate(tr, len(apps), 0.8, 100, testRNG(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) == 0 {
		t.Fatal("no classes")
	}
	return NewSolver(g, apps), classes, DefaultOptions()
}

// TestWarmStartsBeatCold pins the point of round-to-round chaining: it
// drives one master through Build's rounds by hand and, after every
// pricing round, solves the grown master both from the previous round's
// basis and cold. Each chained solve must be warm-started, reach the
// cold solve's objective to 1e-9 relative, and, summed over the rounds,
// take at most half the cold solves' pivots.
func TestWarmStartsBeatCold(t *testing.T) {
	s, classes, opts := warmScenario(t)
	m := newMaster(s.g, s.apps, classes, opts)
	m.solver = s
	defer m.prob.ReleaseWorkspace()
	if err := m.seedColumns(); err != nil {
		t.Fatal(err)
	}
	sol, err := m.prob.Solve()
	if err != nil || sol.Status != lp.Optimal {
		t.Fatalf("first master solve: %v, %v", sol, err)
	}
	rounds, warmPivots, coldPivots := 0, 0, 0
	for rounds < opts.MaxPricingRounds {
		if added, _ := m.price(sol); added == 0 {
			break
		}
		rounds++
		warm, err := m.prob.SolveFrom(sol.Basis())
		if err != nil || warm.Status != lp.Optimal {
			t.Fatalf("round %d: chained solve: %v, %v", rounds, warm, err)
		}
		cold, err := m.prob.Solve()
		if err != nil || cold.Status != lp.Optimal {
			t.Fatalf("round %d: cold solve: %v, %v", rounds, cold, err)
		}
		if !warm.WarmStarted {
			t.Errorf("round %d: the chained solve fell back cold", rounds)
		}
		if rel := math.Abs(warm.Obj-cold.Obj) / math.Max(1, math.Abs(cold.Obj)); rel > 1e-9 {
			t.Errorf("round %d: chained objective %v, cold %v (%.2g relative)", rounds, warm.Obj, cold.Obj, rel)
		}
		warmPivots += warm.Iterations
		coldPivots += cold.Iterations
		sol = warm
	}
	t.Logf("%d rounds: chained %d pivots, cold %d", rounds, warmPivots, coldPivots)
	if rounds < 2 {
		t.Fatalf("column generation ran %d pricing rounds; the scenario needs at least 2", rounds)
	}
	if warmPivots*2 > coldPivots {
		t.Errorf("chaining saved too little: %d pivots chained, %d cold (want ≤ half)", warmPivots, coldPivots)
	}
}

// TestWarmStartsDeterministic: two fresh solvers replaying the same
// build sequence must produce identical plans — round-to-round chaining
// and the column pool cannot introduce run-to-run variance.
func TestWarmStartsDeterministic(t *testing.T) {
	run := func() []*Plan {
		solver, classes, opts := warmScenario(t)
		var out []*Plan
		for i := 0; i < 3; i++ {
			p, err := solver.Build(classes, opts)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, p)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Obj != b[i].Obj || a[i].Iterations != b[i].Iterations {
			t.Fatalf("build %d diverged across identical runs: obj %v vs %v, iters %d vs %d",
				i, a[i].Obj, b[i].Obj, a[i].Iterations, b[i].Iterations)
		}
		if len(a[i].Classes) != len(b[i].Classes) {
			t.Fatalf("build %d class count differs", i)
		}
		for ci := range a[i].Classes {
			if a[i].Classes[ci].Rejected != b[i].Classes[ci].Rejected ||
				len(a[i].Classes[ci].Shares) != len(b[i].Classes[ci].Shares) {
				t.Fatalf("build %d class %d differs across identical runs", i, ci)
			}
			for si := range a[i].Classes[ci].Shares {
				if a[i].Classes[ci].Shares[si].Fraction != b[i].Classes[ci].Shares[si].Fraction {
					t.Fatalf("build %d class %d share %d fraction differs", i, ci, si)
				}
			}
		}
	}
}
