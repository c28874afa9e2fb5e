package lp_test

import (
	"math/rand/v2"
	"testing"

	"github.com/olive-vne/olive/internal/lp"
	"github.com/olive-vne/olive/internal/plan"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
	"github.com/olive-vne/olive/internal/workload"
)

// TestFactorMatchesReferenceInPlanBuild extends the differential test to
// the bases of a column-generation master: warm starts, columns arriving
// between solves, the shapes the offline phase really factors.
func TestFactorMatchesReferenceInPlanBuild(t *testing.T) {
	g := topo.MustBuild(topo.CittaStudi, 4)
	rng := rand.New(rand.NewPCG(4, 1234))
	apps := vnet.DefaultMix(vnet.DefaultParams(), rng)
	wp := workload.DefaultParams().WithUtilization(1.2)
	wp.Slots = 150
	hist, err := workload.GenerateMMPP(g, wp, rng)
	if err != nil {
		t.Fatal(err)
	}
	done := lp.CheckFactorizations()
	_, err = plan.BuildFromHistory(g, apps, hist, plan.DefaultOptions(), rng)
	compared, mismatch := done()
	if err != nil {
		t.Fatal(err)
	}
	if mismatch != nil {
		t.Fatalf("after %d factorizations: %v", compared, mismatch)
	}
	if compared == 0 {
		t.Fatal("the plan build factored nothing through the checked workspace")
	}
	t.Logf("%d factorizations compared", compared)
}
