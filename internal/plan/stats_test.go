package plan

import (
	"testing"

	"github.com/olive-vne/olive/internal/lp"
)

// TestBuildCounters checks the package counters across two Builds on one
// solver. Only round-to-round chaining warm-starts, so each Build's
// first master solve is cold and every later one is a warm attempt.
// The second Build plans the same classes at shifted demands, as the
// next SLOTOFF slot or replan would: re-solving the first Build's class
// set from its column pool converges in one round, which would leave
// nothing to chain. Counters are process globals, so deltas only.
func TestBuildCounters(t *testing.T) {
	s, classes, opts := warmScenario(t)
	shifted := make([]Class, len(classes))
	for i, c := range classes {
		c.Demand *= 1 + 0.5*float64(i%3)
		shifted[i] = c
	}
	for k, cs := range [][]Class{classes, shifted} {
		i := k + 1
		before := Stats()
		p, err := s.Build(cs, opts)
		if err != nil {
			t.Fatal(err)
		}
		after := Stats()
		if d := after.Builds - before.Builds; d != 1 {
			t.Fatalf("build %d: Builds delta = %d, want 1", i, d)
		}
		solves := after.MasterSolves - before.MasterSolves
		if solves < 2 {
			t.Fatalf("build %d: %d master solves over %d pricing rounds; the test needs several", i, solves, p.PricingRounds)
		}
		attempts := after.WarmAttempts - before.WarmAttempts
		hits := after.WarmHits - before.WarmHits
		if attempts != solves-1 {
			t.Fatalf("build %d: %d warm attempts over %d master solves, want all but the first", i, attempts, solves)
		}
		if hits == 0 || hits > attempts {
			t.Fatalf("build %d: %d of %d warm attempts hit", i, hits, attempts)
		}
	}
}

// TestPlanIterationsCountEveryMasterSolve holds Plan.Iterations to the
// simplex pivots lp counted over the Build: every master solve's, not
// only the last one's.
func TestPlanIterationsCountEveryMasterSolve(t *testing.T) {
	s, classes, opts := warmScenario(t)
	before := lp.Stats().Pivots
	p, err := s.Build(classes, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p.PricingRounds == 0 {
		t.Fatal("the Build solved one master; the test needs several")
	}
	if got := lp.Stats().Pivots - before; int64(p.Iterations) != got {
		t.Fatalf("Plan.Iterations = %d, lp counted %d pivots over the Build", p.Iterations, got)
	}
}
