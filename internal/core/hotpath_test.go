package core

import (
	"testing"

	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
)

// TestResidualViewIsLive pins down the residual contract: ResidualView
// must NOT copy — it aliases the live vector, so callers get
// allocation-free reads that track every subsequent embedding.
func TestResidualViewIsLive(t *testing.T) {
	g := tinySubstrate()
	app := tinyApp()
	e, err := NewEngine(g, []*vnet.App{app}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.StartSlot(0)

	view := e.ResidualView()
	if &view[0] != &e.ResidualView()[0] {
		t.Fatal("ResidualView returned distinct backing arrays; it must alias live state, not copy")
	}
	before := append([]float64(nil), view...)

	if out, err := e.Process(req(0, 0, 0, 10, 0, 5)); err != nil || !out.Accepted {
		t.Fatalf("Process = (%+v, %v), want accepted", out, err)
	}
	changed := false
	for i := range view {
		if view[i] != before[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("accepted embedding did not show through ResidualView; the view is stale or a copy")
	}
}

// TestSaturatingBranchOutKeepsInvariants drives the greedy and FULLG
// engines on Iris with demand heavy enough to saturate elements, so
// FULLG's capacity branch-out retries with exclusion views, and checks
// the engines' residual invariants after the run.
func TestSaturatingBranchOutKeepsInvariants(t *testing.T) {
	g, err := topo.Build(topo.Iris, 1)
	if err != nil {
		t.Fatal(err)
	}
	apps := vnet.DefaultMix(vnet.DefaultParams(), testRNG(5))

	for _, exact := range []bool{false, true} {
		e, err := NewEngine(g, apps, Options{Exact: exact})
		if err != nil {
			t.Fatal(err)
		}
		edges := g.EdgeNodes()
		id := 0
		for slot := 0; slot < 6; slot++ {
			e.StartSlot(slot)
			for i := 0; i < 40; i++ {
				// Heavy demand saturates elements and forces the
				// FULLG branch-out to retry with exclusions.
				r := req(id, id%len(apps), edges[id%len(edges)], 40, slot, 3)
				id++
				if _, err := e.Process(r); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSteadyStateChurnAllocatesNothing: once the record table, the
// departure calendar and the ID index have grown to the working set, a
// slot of departures and arrivals allocates nothing — under QUICKG and
// under OLIVE with every request planned, so that no preemption (whose
// victim list is the one allowed allocation) runs.
func TestSteadyStateChurnAllocatesNothing(t *testing.T) {
	g := tinySubstrate()
	app := tinyApp()
	for _, opts := range []Options{{}, {Plan: manualPlan(t, g, app, 100)}} {
		e, err := NewEngine(g, []*vnet.App{app}, opts)
		if err != nil {
			t.Fatal(err)
		}
		slot, id := 0, 0
		churn := func() {
			slot++
			e.StartSlot(slot)
			for k := 0; k < 4; k++ {
				out, err := e.Process(req(id, 0, 0, 1, slot, 1+id%7))
				if err != nil || !out.Accepted || out.Preempted != nil {
					t.Fatalf("%v: request %d = (%+v, %v), want accepted without preemption", e.Algorithm(), id, out, err)
				}
				id++
			}
		}
		for range 100 {
			churn()
		}
		if a := testing.AllocsPerRun(200, churn); a != 0 {
			t.Fatalf("%v: %v allocations per slot of churn, want 0", e.Algorithm(), a)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
