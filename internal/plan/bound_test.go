package plan

import (
	"fmt"
	"math"
	"testing"

	"github.com/olive-vne/olive/internal/topo"
)

// TestDroppedBoundKeepsOptimum solves four masters cold, with the round
// cap lifted, and holds each objective within 1e-9 relative to obj, the
// optimum the same master reached while embedding columns carried an
// explicit upper bound of 1. That bound is implied by the class's
// convexity row and x, s ≥ 0, so dropping it may move the final vertex
// but not the optimum. Each run must converge, and its Lagrangian bound
// must close: Gap ≤ 1e-9.
func TestDroppedBoundKeepsOptimum(t *testing.T) {
	for _, tc := range []struct {
		name topo.Name
		seed uint64
		obj  float64
	}{
		{topo.Random100, 4, 893345171.95223093},
		{topo.Random100, 1, 674302101.48817837},
		{topo.Iris, 1, 601559249.54269135},
		{topo.CittaStudi, 1, 155425048.43501168},
	} {
		t.Run(fmt.Sprintf("%s-seed%d", tc.name, tc.seed), func(t *testing.T) {
			s, classes := historyInstance(t, tc.name, tc.seed)
			opts := DefaultOptions()
			opts.MaxPricingRounds = math.MaxInt
			p, err := s.Build(classes, opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("objective %.17g after %d rounds, %d pivots, gap %.3g", p.Obj, p.PricingRounds, p.Iterations, p.Gap)
			if !p.Converged {
				t.Fatalf("not converged after %d rounds", p.PricingRounds)
			}
			if rel := math.Abs(p.Obj-tc.obj) / math.Abs(tc.obj); !(rel <= 1e-9) {
				t.Errorf("objective %.17g, want %.17g (%.2g relative)", p.Obj, tc.obj, rel)
			}
			if !(p.Bound <= p.Obj) || !(p.Gap <= 1e-9) {
				t.Errorf("bound %.17g beside objective %.17g, gap %g, want ≤ 1e-9", p.Bound, p.Obj, p.Gap)
			}
		})
	}
}
