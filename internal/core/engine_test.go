package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"github.com/olive-vne/olive/internal/embedder"
	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/plan"
	"github.com/olive-vne/olive/internal/substrate"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
	"github.com/olive-vne/olive/internal/workload"
)

func testRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 77)) }

// tinySubstrate: ingress A (tiny), hosting nodes B (big) and C (small),
// line A-B-C.
func tinySubstrate() *graph.Graph {
	g := graph.New()
	g.AddNode(graph.Node{Name: "A", Tier: graph.TierEdge, Cap: 1000, Cost: 10})
	g.AddNode(graph.Node{Name: "B", Tier: graph.TierTransport, Cap: 4000, Cost: 1})
	g.AddNode(graph.Node{Name: "C", Tier: graph.TierCore, Cap: 800, Cost: 2})
	g.AddLink(0, 1, 2000, 1)
	g.AddLink(1, 2, 2000, 1)
	return g
}

// tinyApp: θ→v1→v2, node footprint 20/unit, root link 4/unit.
func tinyApp() *vnet.App {
	return &vnet.App{
		Name: "tiny", Kind: vnet.KindChain,
		VNFs:  []vnet.VNF{{ID: 0}, {ID: 1, Size: 10}, {ID: 2, Size: 10}},
		Links: []vnet.VLink{{From: 0, To: 1, Size: 4}, {From: 1, To: 2, Size: 2}},
	}
}

func req(id, app int, ingress graph.NodeID, d float64, arrive, dur int) workload.Request {
	return workload.Request{ID: id, App: app, Ingress: ingress, Demand: d, Arrive: arrive, Duration: dur}
}

// manualPlan builds a single-class plan: app 0 at ingress 0, demand D,
// fully planned onto the collocated embedding at node B.
func manualPlan(t *testing.T, g *graph.Graph, app *vnet.App, D float64) *plan.Plan {
	t.Helper()
	classes := []plan.Class{{App: 0, Ingress: 0, Demand: D}}
	opts := plan.DefaultOptions()
	p, err := plan.Build(g, []*vnet.App{app}, classes, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Empty() {
		t.Fatal("manual plan came out empty")
	}
	return p
}

func TestQuickGAcceptsAndReleases(t *testing.T) {
	g := tinySubstrate()
	app := tinyApp()
	e, err := NewEngine(g, []*vnet.App{app}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Algorithm() != AlgoQuickG {
		t.Fatalf("Algorithm = %v, want QUICKG", e.Algorithm())
	}
	e.StartSlot(0)
	out, err := e.Process(req(0, 0, 0, 10, 0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Accepted || out.Planned {
		t.Fatalf("outcome = %+v, want accepted non-planned", out)
	}
	if !out.Emb.Collocated() {
		t.Fatal("QUICKG produced a non-collocated embedding")
	}
	if e.ActiveCount() != 1 {
		t.Fatalf("ActiveCount = %d, want 1", e.ActiveCount())
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Departure at slot 3 releases all resources.
	e.StartSlot(3)
	if e.ActiveCount() != 0 {
		t.Fatalf("ActiveCount after departure = %d, want 0", e.ActiveCount())
	}
	caps := g.Capacities()
	for i, c := range caps {
		if math.Abs(slices.Clone(e.ResidualView())[i]-c) > 1e-9 {
			t.Fatalf("element %d residual %g ≠ capacity %g after release", i, slices.Clone(e.ResidualView())[i], c)
		}
	}
}

func TestReleaseByID(t *testing.T) {
	g := tinySubstrate()
	app := tinyApp()
	e, err := NewEngine(g, []*vnet.App{app}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.StartSlot(0)
	out, err := e.Process(req(0, 0, 0, 10, 0, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Accepted {
		t.Fatal("request not accepted")
	}
	if !e.ReleaseByID(0) {
		t.Fatal("ReleaseByID(0) = false, want true for an active request")
	}
	if e.ActiveCount() != 0 {
		t.Fatalf("ActiveCount after ReleaseByID = %d, want 0", e.ActiveCount())
	}
	caps := g.Capacities()
	for i, c := range caps {
		if math.Abs(slices.Clone(e.ResidualView())[i]-c) > 1e-9 {
			t.Fatalf("element %d residual %g ≠ capacity %g after early release", i, slices.Clone(e.ResidualView())[i], c)
		}
	}
	if e.ReleaseByID(0) {
		t.Fatal("ReleaseByID(0) = true on an already-released request")
	}
	if e.ReleaseByID(99) {
		t.Fatal("ReleaseByID(99) = true on an unknown request")
	}
	// The stale departure-heap entry from the released request must not
	// disturb later slots.
	e.StartSlot(5)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A planned allocation returns its plan-share residual too.
	p := manualPlan(t, g, app, 100)
	ep, err := NewEngine(g, []*vnet.App{app}, Options{Plan: p})
	if err != nil {
		t.Fatal(err)
	}
	ep.StartSlot(0)
	out, err = ep.Process(req(1, 0, 0, 10, 0, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Accepted || !out.Planned {
		t.Fatalf("outcome = %+v, want accepted planned", out)
	}
	before := ep.PlannedResidual(0, 0)
	if !ep.ReleaseByID(1) {
		t.Fatal("ReleaseByID(1) = false")
	}
	if after := ep.PlannedResidual(0, 0); after != before+10 {
		t.Fatalf("planned residual after release = %g, want %g", after, before+10)
	}
	if err := ep.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGRejectsWhenSaturated(t *testing.T) {
	g := tinySubstrate()
	app := tinyApp()
	e, err := NewEngine(g, []*vnet.App{app}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.StartSlot(0)
	accepted, rejected := 0, 0
	// Footprint 20/unit·demand 50 = 1000 CU per request; total node
	// capacity 5800 ⇒ at most 5 fit (links bind earlier for remote).
	for i := 0; i < 12; i++ {
		out, err := e.Process(req(i, 0, 0, 50, 0, 100))
		if err != nil {
			t.Fatal(err)
		}
		if out.Accepted {
			accepted++
		} else {
			rejected++
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("after request %d: %v", i, err)
		}
	}
	if rejected == 0 {
		t.Fatal("no rejection despite saturation")
	}
	if accepted == 0 {
		t.Fatal("nothing accepted on an empty substrate")
	}
}

func TestOLIVEPlannedAllocation(t *testing.T) {
	g := tinySubstrate()
	app := tinyApp()
	p := manualPlan(t, g, app, 100)
	e, err := NewEngine(g, []*vnet.App{app}, Options{Plan: p})
	if err != nil {
		t.Fatal(err)
	}
	if e.Algorithm() != AlgoOLIVE {
		t.Fatalf("Algorithm = %v, want OLIVE", e.Algorithm())
	}
	e.StartSlot(0)
	out, err := e.Process(req(0, 0, 0, 10, 0, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Accepted || !out.Planned {
		t.Fatalf("outcome %+v, want planned acceptance", out)
	}
	if got := e.PlannedResidual(0, 0); got > 100-10+1e-6 {
		t.Fatalf("planned residual %g not reduced by allocation", got)
	}
	// Departure restores the plan residual.
	before := e.PlannedResidual(0, 0)
	e.StartSlot(5)
	if after := e.PlannedResidual(0, 0); after <= before {
		t.Fatalf("plan residual %g not restored after departure (was %g)", after, before)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOLIVEBorrowsBeyondPlan(t *testing.T) {
	g := tinySubstrate()
	app := tinyApp()
	p := manualPlan(t, g, app, 30) // plan covers only 30 demand units
	e, err := NewEngine(g, []*vnet.App{app}, Options{Plan: p})
	if err != nil {
		t.Fatal(err)
	}
	e.StartSlot(0)
	// First request exhausts the plan; second must borrow
	// (accepted, planned=false).
	out1, _ := e.Process(req(0, 0, 0, 28, 0, 50))
	if !out1.Accepted || !out1.Planned {
		t.Fatalf("first request %+v, want planned", out1)
	}
	out2, _ := e.Process(req(1, 0, 0, 28, 0, 50))
	if !out2.Accepted {
		t.Fatal("second request rejected despite free substrate capacity")
	}
	if out2.Planned {
		t.Fatal("second request marked planned beyond plan capacity")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOLIVEBorrowingDisabled(t *testing.T) {
	g := tinySubstrate()
	app := tinyApp()
	p := manualPlan(t, g, app, 30)
	e, err := NewEngine(g, []*vnet.App{app}, Options{Plan: p, DisableBorrowing: true})
	if err != nil {
		t.Fatal(err)
	}
	e.StartSlot(0)
	e.Process(req(0, 0, 0, 28, 0, 50))
	out, _ := e.Process(req(1, 0, 0, 28, 0, 50))
	// Without borrowing the request falls to the greedy path; it is
	// still accepted (substrate has room) but never via the plan.
	if !out.Accepted {
		t.Fatal("greedy fallback failed")
	}
	if out.Planned {
		t.Fatal("planned allocation beyond plan capacity with borrowing disabled")
	}
}

func TestOLIVEPreemptsBorrowers(t *testing.T) {
	// Substrate with one hosting node so borrowed capacity must be
	// reclaimed: ingress A, host B.
	g := graph.New()
	g.AddNode(graph.Node{Name: "A", Tier: graph.TierEdge, Cap: 1, Cost: 100})
	g.AddNode(graph.Node{Name: "B", Tier: graph.TierTransport, Cap: 1000, Cost: 1})
	g.AddLink(0, 1, 10000, 1)
	app := tinyApp() // 20 CU/unit on B
	// Plan: class (app0, A) with demand 40 → 800 CU on B guaranteed.
	classes := []plan.Class{{App: 0, Ingress: 0, Demand: 40}}
	p, err := plan.Build(g, []*vnet.App{app}, classes, plan.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, []*vnet.App{app}, Options{Plan: p})
	if err != nil {
		t.Fatal(err)
	}
	e.StartSlot(0)

	// Request 0: planned, 10 units (200 CU). Plan residual 30 left.
	if out, _ := e.Process(req(0, 0, 0, 10, 0, 100)); !out.Planned {
		t.Fatalf("request 0 not planned: %+v", out)
	}
	// Request 1: 35 units > plan residual 30 → borrows 700 CU.
	out1, _ := e.Process(req(1, 0, 0, 35, 0, 100))
	if !out1.Accepted || out1.Planned {
		t.Fatalf("request 1 %+v, want borrowed acceptance", out1)
	}
	// Substrate now holds 200+700=900 of 1000 CU. Request 2 wants 25
	// units = 500 CU: fits plan residual (30) but not substrate → must
	// preempt the borrower (request 1).
	out2, _ := e.Process(req(2, 0, 0, 25, 0, 100))
	if !out2.Accepted || !out2.Planned {
		t.Fatalf("request 2 %+v, want planned acceptance via preemption", out2)
	}
	if len(out2.Preempted) != 1 || out2.Preempted[0] != 1 {
		t.Fatalf("preempted %v, want [1]", out2.Preempted)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOLIVEPreemptionDisabled(t *testing.T) {
	g := graph.New()
	g.AddNode(graph.Node{Name: "A", Tier: graph.TierEdge, Cap: 1, Cost: 100})
	g.AddNode(graph.Node{Name: "B", Tier: graph.TierTransport, Cap: 1000, Cost: 1})
	g.AddLink(0, 1, 10000, 1)
	app := tinyApp()
	classes := []plan.Class{{App: 0, Ingress: 0, Demand: 40}}
	p, err := plan.Build(g, []*vnet.App{app}, classes, plan.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, []*vnet.App{app}, Options{Plan: p, DisablePreemption: true})
	if err != nil {
		t.Fatal(err)
	}
	e.StartSlot(0)
	e.Process(req(0, 0, 0, 10, 0, 100))
	e.Process(req(1, 0, 0, 35, 0, 100)) // borrower fills node B
	out, _ := e.Process(req(2, 0, 0, 25, 0, 100))
	if out.Accepted {
		t.Fatalf("request accepted without preemption: %+v", out)
	}
	if len(out.Preempted) != 0 {
		t.Fatal("preemption happened despite being disabled")
	}
}

func TestFullGExactBeatsCollocatedWhenSplitHelps(t *testing.T) {
	// Two hosting nodes of 250 CU each: a 20 CU/unit app with demand 20
	// needs 400 CU total — no single node fits it, but a split does.
	g := graph.New()
	g.AddNode(graph.Node{Name: "A", Tier: graph.TierEdge, Cap: 1, Cost: 5})
	g.AddNode(graph.Node{Name: "B", Tier: graph.TierTransport, Cap: 250, Cost: 1})
	g.AddNode(graph.Node{Name: "C", Tier: graph.TierTransport, Cap: 250, Cost: 1})
	g.AddLink(0, 1, 10000, 1)
	g.AddLink(1, 2, 10000, 1)
	app := tinyApp()

	quick, err := NewEngine(g, []*vnet.App{app}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	quick.StartSlot(0)
	if out, _ := quick.Process(req(0, 0, 0, 20, 0, 10)); out.Accepted {
		t.Fatal("collocated greedy accepted an unfittable request")
	}

	full, err := NewEngine(g, []*vnet.App{app}, Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Algorithm() != AlgoFullG {
		t.Fatalf("Algorithm = %v, want FULLG", full.Algorithm())
	}
	full.StartSlot(0)
	out, _ := full.Process(req(0, 0, 0, 20, 0, 10))
	if !out.Accepted {
		t.Fatal("FULLG could not split the request across nodes")
	}
	if out.Emb.Collocated() {
		t.Fatal("FULLG embedding unexpectedly collocated (no single node fits)")
	}
	if err := full.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineRejectsBadRequests(t *testing.T) {
	g := tinySubstrate()
	e, err := NewEngine(g, []*vnet.App{tinyApp()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Process(req(0, 7, 0, 1, 0, 1)); err == nil {
		t.Fatal("out-of-range app index accepted")
	}
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil, nil, Options{}); err == nil {
		t.Fatal("nil substrate accepted")
	}
	if _, err := NewEngine(tinySubstrate(), nil, Options{}); err == nil {
		t.Fatal("empty app set accepted")
	}
}

// TestEngineRandomizedInvariants drives all three engine modes with a
// random request stream and asserts residual consistency throughout.
func TestEngineRandomizedInvariants(t *testing.T) {
	g := topo.MustBuild(topo.CittaStudi, 21)
	rng := testRNG(21)
	apps := vnet.DefaultMix(vnet.DefaultParams(), rng)
	wp := workload.DefaultParams().WithUtilization(1.2)
	wp.Slots = 40
	tr, err := workload.GenerateMMPP(g, wp, rng)
	if err != nil {
		t.Fatal(err)
	}
	hist, online, err := tr.Split(25)
	if err != nil {
		t.Fatal(err)
	}
	popts := plan.DefaultOptions()
	popts.BootstrapB = 20
	p, err := plan.BuildFromHistory(g, apps, hist, popts, rng)
	if err != nil {
		t.Fatal(err)
	}

	for _, opts := range []Options{{}, {Plan: p}, {Exact: true}} {
		e, err := NewEngine(g, apps, opts)
		if err != nil {
			t.Fatal(err)
		}
		slots := online.PerSlot()
		for ts := range slots {
			e.StartSlot(ts)
			for _, r := range slots[ts] {
				if _, err := e.Process(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("%v slot %d: %v", e.Algorithm(), ts, err)
			}
		}
	}
}

func TestSlotOffBasic(t *testing.T) {
	g := tinySubstrate()
	app := tinyApp()
	s, err := NewSlotOffOn(embedder.ForState(substrate.New(g)), []*vnet.App{app}, SlotOffOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Step(0, []workload.Request{req(0, 0, 0, 10, 0, 3), req(1, 0, 0, 10, 0, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AcceptedNew) != 2 || len(res.RejectedNew) != 0 {
		t.Fatalf("slot 0: accepted %d rejected %d, want 2/0", len(res.AcceptedNew), len(res.RejectedNew))
	}
	if res.ResourceCost <= 0 {
		t.Fatal("no resource cost reported for active requests")
	}
	// Slot 3: request 0 departs.
	res3, err := s.Step(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.ActiveCount() != 1 {
		t.Fatalf("ActiveCount = %d, want 1 after departure", s.ActiveCount())
	}
	if len(res3.Dropped) != 0 {
		t.Fatal("re-optimization dropped a fitting request")
	}
}

func TestSlotOffRejectsOverload(t *testing.T) {
	g := tinySubstrate()
	app := tinyApp()
	s, err := NewSlotOffOn(embedder.ForState(substrate.New(g)), []*vnet.App{app}, SlotOffOptions())
	if err != nil {
		t.Fatal(err)
	}
	var arrivals []workload.Request
	for i := 0; i < 40; i++ {
		arrivals = append(arrivals, req(i, 0, 0, 20, 0, 10))
	}
	res, err := s.Step(0, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RejectedNew) == 0 {
		t.Fatal("no rejections at massive overload")
	}
	if len(res.AcceptedNew) == 0 {
		t.Fatal("no acceptances on an empty substrate")
	}
	// Substrate feasibility of the final allocation.
	load := make([]float64, g.NumElements())
	for _, r := range res.AcceptedNew {
		s.Alloc[r.ID].Apply(load, -r.Demand)
	}
	for i := range load {
		if -load[i] > g.ElementCap(graph.ElementID(i))+1e-6 {
			t.Fatalf("element %d overloaded: %g > %g", i, -load[i], g.ElementCap(graph.ElementID(i)))
		}
	}
}

func TestSlotOffArrivalSlotMismatch(t *testing.T) {
	g := tinySubstrate()
	s, err := NewSlotOffOn(embedder.ForState(substrate.New(g)), []*vnet.App{tinyApp()}, SlotOffOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(5, []workload.Request{req(0, 0, 0, 1, 3, 1)}); err == nil {
		t.Fatal("mismatched arrival slot accepted")
	}
}

func TestSwapPlanReclassifiesActives(t *testing.T) {
	g := tinySubstrate()
	app := tinyApp()
	p1 := manualPlan(t, g, app, 100)
	e, err := NewEngine(g, []*vnet.App{app}, Options{Plan: p1})
	if err != nil {
		t.Fatal(err)
	}
	e.StartSlot(0)
	out, _ := e.Process(req(0, 0, 0, 10, 0, 50))
	if !out.Planned {
		t.Fatal("first request not planned")
	}
	if got := e.PlannedResidual(0, 0); got > 90+1e-6 {
		t.Fatalf("pre-swap residual %g, want ≤ 90", got)
	}

	// Swap to a fresh plan: residuals reset to the new plan's full
	// capacity; the active request becomes a borrower.
	p2 := manualPlan(t, g, app, 60)
	e.SwapPlan(p2)
	if got := e.PlannedResidual(0, 0); math.Abs(got-60) > 1e-6 {
		t.Fatalf("plan residual after swap = %g, want full 60", got)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The old request's departure must NOT credit the new plan.
	e.StartSlot(50)
	if got := e.PlannedResidual(0, 0); got > 60+1e-6 {
		t.Fatalf("departure over-credited the new plan: %g", got)
	}
	// New allocations draw from the new plan.
	out2, _ := e.Process(req(1, 0, 0, 20, 50, 5))
	if !out2.Accepted || !out2.Planned {
		t.Fatalf("post-swap request %+v, want planned acceptance", out2)
	}
}

func TestSwapPlanToEmptyDowngradesToGreedy(t *testing.T) {
	g := tinySubstrate()
	app := tinyApp()
	p := manualPlan(t, g, app, 100)
	e, err := NewEngine(g, []*vnet.App{app}, Options{Plan: p})
	if err != nil {
		t.Fatal(err)
	}
	e.StartSlot(0)
	e.SwapPlan(nil)
	out, _ := e.Process(req(0, 0, 0, 10, 0, 5))
	if !out.Accepted || out.Planned {
		t.Fatalf("after swapping to empty plan: %+v, want greedy acceptance", out)
	}
}

func TestPreemptMultipleVictims(t *testing.T) {
	// Hosting node B shared by a planned class at ingress A1 and
	// unplanned greedy traffic from ingress A2. Two greedy interlopers
	// must BOTH be evicted to admit one large planned request.
	g := graph.New()
	g.AddNode(graph.Node{Name: "A1", Tier: graph.TierEdge, Cap: 1, Cost: 100})
	g.AddNode(graph.Node{Name: "A2", Tier: graph.TierEdge, Cap: 1, Cost: 100})
	g.AddNode(graph.Node{Name: "B", Tier: graph.TierTransport, Cap: 1000, Cost: 1})
	g.AddLink(0, 2, 10000, 1)
	g.AddLink(1, 2, 10000, 1)
	app := tinyApp() // 20 CU/unit on B
	// Plan guarantees 40 units (800 CU on B) for ingress A1 only.
	classes := []plan.Class{{App: 0, Ingress: 0, Demand: 40}}
	p, err := plan.Build(g, []*vnet.App{app}, classes, plan.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, []*vnet.App{app}, Options{Plan: p})
	if err != nil {
		t.Fatal(err)
	}
	e.StartSlot(0)
	// Two greedy interlopers from A2 (no plan class → non-planned),
	// 24 units = 480 CU each: node B at 960/1000.
	for id := 0; id < 2; id++ {
		out, _ := e.Process(req(id, 0, 1, 24, 0, 100))
		if !out.Accepted || out.Planned {
			t.Fatalf("interloper %d: %+v", id, out)
		}
	}
	// Planned request for the full guarantee (40 units = 800 CU): free
	// is 40 CU; one eviction leaves 520, both leave 1000 ≥ 800.
	out, _ := e.Process(req(2, 0, 0, 40, 0, 100))
	if !out.Accepted || !out.Planned {
		t.Fatalf("planned request %+v, want planned acceptance", out)
	}
	if len(out.Preempted) != 2 {
		t.Fatalf("preempted %v, want both interlopers", out.Preempted)
	}
	// One call, two greedy rounds: the first scores both borrowers of
	// node B, the second the one that is left.
	if st, want := e.PreemptStats(), (PreemptStats{Calls: 1, CandidatesScored: 3, Victims: 2}); st != want {
		t.Fatalf("PreemptStats = %+v, want %+v", st, want)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNoPreemptionForUnplannableRequest(t *testing.T) {
	// A request too large for the whole substrate must be rejected
	// without evicting anyone (PREEMPT only serves planned allocations).
	g := graph.New()
	g.AddNode(graph.Node{Name: "A", Tier: graph.TierEdge, Cap: 1, Cost: 100})
	g.AddNode(graph.Node{Name: "B", Tier: graph.TierTransport, Cap: 1000, Cost: 1})
	g.AddLink(0, 1, 10000, 1)
	app := tinyApp()
	classes := []plan.Class{{App: 0, Ingress: 0, Demand: 40}}
	p, err := plan.Build(g, []*vnet.App{app}, classes, plan.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, []*vnet.App{app}, Options{Plan: p})
	if err != nil {
		t.Fatal(err)
	}
	e.StartSlot(0)
	// A borrower occupies part of B.
	out0, _ := e.Process(req(0, 0, 0, 41, 0, 100))
	if !out0.Accepted || out0.Planned {
		t.Fatalf("borrower: %+v", out0)
	}
	// Demand 100 = 2000 CU exceeds node B outright: reject, no victims.
	out, _ := e.Process(req(1, 0, 0, 100, 0, 100))
	if out.Accepted || len(out.Preempted) != 0 {
		t.Fatalf("oversized request: %+v", out)
	}
	if e.ActiveCount() != 1 {
		t.Fatalf("ActiveCount = %d, want 1 (borrower untouched)", e.ActiveCount())
	}
}

func TestPreemptionNeverEvictsPlanned(t *testing.T) {
	g := graph.New()
	g.AddNode(graph.Node{Name: "A", Tier: graph.TierEdge, Cap: 1, Cost: 100})
	g.AddNode(graph.Node{Name: "B", Tier: graph.TierTransport, Cap: 1100, Cost: 1})
	g.AddLink(0, 1, 10000, 1)
	app := tinyApp()
	// Quota 50 units = 1000 CU of the 1100 CU node.
	classes := []plan.Class{{App: 0, Ingress: 0, Demand: 50}}
	p, err := plan.Build(g, []*vnet.App{app}, classes, plan.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, []*vnet.App{app}, Options{Plan: p})
	if err != nil {
		t.Fatal(err)
	}
	e.StartSlot(0)
	// Two planned requests consume the full quota (50 units = 1000 CU).
	for id := 0; id < 2; id++ {
		out, _ := e.Process(req(id, 0, 0, 25, 0, 100))
		if !out.Accepted || !out.Planned {
			t.Fatalf("request %d not planned: %+v", id, out)
		}
	}
	// A third request: plan residual 0, free 100 CU < 200 CU needed →
	// rejected; planned actives are never preemption victims.
	out, _ := e.Process(req(2, 0, 0, 10, 0, 100))
	if out.Accepted || len(out.Preempted) != 0 {
		t.Fatalf("planned allocations disturbed: %+v", out)
	}
	if e.ActiveCount() != 2 {
		t.Fatalf("ActiveCount = %d, want 2", e.ActiveCount())
	}
}

// preemptReference is PREEMPT as it was before the borrower index — a
// scan over every active request, a sort of every non-planned one and a
// relief score for each of them against a map-backed deficit — kept
// verbatim (its scratch moved into locals) as the oracle the indexed
// Engine.preempt must match victim for victim and bit for bit.
func preemptReference(e *Engine, emb *vnet.Embedding, d float64) []int {
	// Deficit per element.
	remaining := make(map[graph.ElementID]float64)
	res := e.st.ResidualVec()
	for _, u := range emb.UnitUse() {
		if need := u.Amount*d - res[u.Elem]; need > 0 {
			remaining[u.Elem] = need
		}
	}
	if len(remaining) == 0 {
		return nil
	}
	// Candidates: active non-planned allocations (R_DONE \ R_PLAN).
	var cands []*activeReq
	for _, ar := range e.recs {
		if ar.emb != nil && !ar.planned {
			cands = append(cands, ar)
		}
	}
	// Deterministic order, then greedy max-relief selection.
	sort.Slice(cands, func(i, j int) bool { return cands[i].req.ID < cands[j].req.ID })

	var chosen []*activeReq
	for len(remaining) > 0 {
		bestIdx, bestRelief := -1, 0.0
		for i, ar := range cands {
			if ar == nil {
				continue
			}
			var relief float64
			for _, u := range ar.emb.UnitUse() {
				if need, ok := remaining[u.Elem]; ok {
					rel := u.Amount * ar.req.Demand
					if rel > need {
						rel = need
					}
					relief += rel
				}
			}
			if relief > bestRelief {
				bestRelief, bestIdx = relief, i
			}
		}
		if bestIdx < 0 {
			return nil // preemption cannot clear the deficit
		}
		ar := cands[bestIdx]
		cands[bestIdx] = nil
		chosen = append(chosen, ar)
		// Subtract the chosen request's relief in place; elements its
		// embedding does not touch keep their deficit.
		for _, u := range ar.emb.UnitUse() {
			if need, ok := remaining[u.Elem]; ok {
				rel := u.Amount * ar.req.Demand
				if need > rel {
					remaining[u.Elem] = need - rel
				} else {
					delete(remaining, u.Elem)
				}
			}
		}
	}
	ids := make([]int, 0, len(chosen))
	for _, ar := range chosen {
		e.release(ar)
		ids = append(ids, ar.req.ID)
	}
	return ids
}

// processReference is Engine.Process with preemptReference in PREEMPT's
// place (and without the argument checks), for engines the differential
// test drives in lock-step with the real one.
func processReference(e *Engine, r workload.Request) Outcome {
	var out Outcome
	emb, planned, classIdx, shareIdx := e.planEmbed(r)
	if planned && !e.st.Fits(emb, r.Demand) {
		if !e.opts.DisablePreemption {
			out.Preempted = preemptReference(e, emb, r.Demand)
		}
		if !e.st.Fits(emb, r.Demand) {
			emb, planned = nil, false
		}
	}
	if emb == nil {
		emb = e.greedyEmbed(r)
		planned = false
	}
	if emb == nil || !e.st.Fits(emb, r.Demand) {
		return out
	}
	e.allocate(r, emb, planned, classIdx, shareIdx)
	out.Accepted, out.Planned, out.Emb = true, planned, emb
	return out
}
