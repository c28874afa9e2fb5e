package core

import (
	"math"
	"slices"
	"testing"

	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/plan"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
)

// TestDepartureRecordLifecycle walks one record table through early
// release, zombies and ID reuse on the tiny substrate, under QUICKG and
// OLIVE: a record released early must stay out of reuse until its own
// departure entry pops (otherwise that stale entry would release whoever
// took the record), and an ID released and Processed again departs at its
// new entry, not the stale one.
func TestDepartureRecordLifecycle(t *testing.T) {
	g := tinySubstrate()
	app := tinyApp()
	for _, opts := range []Options{{}, {Plan: manualPlan(t, g, app, 100)}} {
		e, err := NewEngine(g, []*vnet.App{app}, opts)
		if err != nil {
			t.Fatal(err)
		}
		name := e.Algorithm()
		check := func(step string, want ...int) {
			t.Helper()
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("%v %s: %v", name, step, err)
			}
			var got []int
			for _, ar := range e.recs {
				if ar.emb != nil {
					got = append(got, ar.req.ID)
				}
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%v %s: active %v, want %v", name, step, got, want)
			}
		}
		accept := func(id, arrive, dur int) {
			t.Helper()
			if out, err := e.Process(req(id, 0, 0, 10, arrive, dur)); err != nil || !out.Accepted {
				t.Fatalf("%v: Process(%d) = (%+v, %v), want accepted", name, id, out, err)
			}
		}

		e.StartSlot(0)
		accept(0, 0, 5) // departs at 5
		accept(1, 0, 3) // departs at 3
		if !e.ReleaseByID(0) {
			t.Fatalf("%v: ReleaseByID(0) = false", name)
		}
		check("after the early release", 1)
		if len(e.freeRecs) != 0 || e.recs[0].emb != nil {
			t.Fatalf("%v: the early-released record was recycled before its entry popped", name)
		}
		// A new arrival gets a record of its own, not the zombie's: the
		// zombie's entry at slot 5 must not release it.
		accept(2, 0, 10)
		if len(e.recs) != 3 {
			t.Fatalf("%v: %d records after three arrivals with a zombie, want 3", name, len(e.recs))
		}
		// ID 0 again, released early once more before either entry pops.
		e.StartSlot(1)
		accept(0, 1, 9) // departs at 10, after its stale entry at 5
		check("after re-Processing ID 0", 0, 1, 2)

		e.StartSlot(3)
		check("at slot 3", 0, 2)
		e.StartSlot(5) // the stale entry of the first ID 0 pops
		check("at slot 5, past the stale entry", 0, 2)
		if len(e.freeRecs) != 2 {
			t.Fatalf("%v: %d free records at slot 5, want 2 (ID 1's and the zombie)", name, len(e.freeRecs))
		}
		// Both free records are reused before the table grows.
		accept(3, 5, 1)
		accept(4, 5, 1)
		if len(e.recs) != 4 {
			t.Fatalf("%v: %d records, want 4", name, len(e.recs))
		}
		e.StartSlot(6)
		check("at slot 6", 0, 2)

		e.StartSlot(10) // drain
		check("after the drain")
		if e.cal.pending != 0 || len(e.freeRecs) != len(e.recs) {
			t.Fatalf("%v: drained engine holds %d entries and %d of %d records free", name, e.cal.pending, len(e.freeRecs), len(e.recs))
		}
		if !sameFloats(slices.Clone(e.ResidualView()), g.Capacities()) {
			t.Fatalf("%v: residual %v after the drain, capacity %v", name, slices.Clone(e.ResidualView()), g.Capacities())
		}
	}
}

// TestDepartureRecordsUnderPreemption replays the u = 1.4 overload trace
// under OLIVE with early releases mixed in, so that preemption victims and
// released requests leave zombie records whose entries pop in later
// slots, checking the invariants (every record free or named once, every
// named live record active and departing at its entry's slot) after every
// slot, then drains the engine back to full capacity and a full plan.
func TestDepartureRecordsUnderPreemption(t *testing.T) {
	f := newOverloadFixture(t, topo.Iris, 25, 12)
	e, err := NewEngine(f.g, f.apps, Options{Plan: f.plans[0]})
	if err != nil {
		t.Fatal(err)
	}
	rng := testRNG(3)
	var live []int
	released := 0
	for ts, rs := range f.slots {
		e.StartSlot(ts)
		for _, r := range rs {
			if len(live) > 0 && rng.IntN(10) == 0 && e.ReleaseByID(live[rng.IntN(len(live))]) {
				released++
			}
			out, err := e.Process(r)
			if err != nil {
				t.Fatal(err)
			}
			if out.Accepted {
				live = append(live, r.ID)
			}
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("slot %d: %v", ts, err)
		}
	}
	zombies := 0
	for _, ar := range e.recs {
		if ar.emb == nil {
			zombies++
		}
	}
	zombies -= len(e.freeRecs)
	if st := e.PreemptStats(); st.Victims == 0 || released == 0 || zombies == 0 {
		t.Fatalf("vacuous run: %+v, %d early releases, %d zombies at the end", st, released, zombies)
	}
	e.StartSlot(math.MaxInt)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if e.ActiveCount() != 0 || e.cal.pending != 0 || len(e.freeRecs) != len(e.recs) {
		t.Fatalf("drain left %d active, %d entries, %d of %d records free", e.ActiveCount(), e.cal.pending, len(e.freeRecs), len(e.recs))
	}
	caps := f.g.Capacities()
	for i, c := range slices.Clone(e.ResidualView()) {
		if math.Abs(c-caps[i]) > 1e-6*caps[i] {
			t.Fatalf("element %d: residual %v after the drain, capacity %v", i, c, caps[i])
		}
	}
	for ci, cp := range f.plans[0].Classes {
		if got, want := e.PlannedResidual(cp.Class.App, cp.Class.Ingress), cp.PlannedDemand(); math.Abs(got-want) > 1e-6*want {
			t.Fatalf("class %d: planned residual %v after the drain, want %v", ci, got, want)
		}
	}
}

// TestClassTableSizedFromEngine: the class table spans the engine's apps
// and substrate, whatever the plan's classes name. A plan assembled with
// classes at an ingress past the substrate, at a negative ingress and at
// an unknown app must neither panic nor match any request, and the
// classes in range must still serve theirs. Build refuses such classes,
// so they are appended to a built plan's Classes, which is all the engine
// reads; the plan's lookup index, which CheckInvariants audits the table
// against over the engine's keys, holds none of them, as it would not.
func TestClassTableSizedFromEngine(t *testing.T) {
	g := tinySubstrate()
	app := tinyApp()
	p := manualPlan(t, g, app, 100)
	for _, c := range []plan.Class{{App: 0, Ingress: 1 << 20, Demand: 5}, {App: 0, Ingress: -4, Demand: 5}, {App: 3, Ingress: 1, Demand: 5}} {
		p.Classes = append(p.Classes, plan.ClassPlan{Class: c, Shares: p.Classes[0].Shares})
	}
	for _, swap := range []bool{false, true} {
		var e *Engine
		var err error
		if swap {
			e, err = NewEngine(g, []*vnet.App{app}, Options{})
			if err == nil {
				e.SwapPlan(p)
			}
		} else {
			e, err = NewEngine(g, []*vnet.App{app}, Options{Plan: p})
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		for _, q := range []struct {
			app     int
			ingress graph.NodeID
		}{{0, 1 << 20}, {0, -4}, {3, 1}, {0, 3}, {-1, 0}, {0, 1}, {0, 2}} {
			if got := e.PlannedResidual(q.app, q.ingress); got != 0 {
				t.Fatalf("swap=%v: PlannedResidual(%d, %d) = %v, want 0", swap, q.app, q.ingress, got)
			}
		}
		e.StartSlot(0)
		for id, v := range []graph.NodeID{1, 2, 0} {
			out, err := e.Process(req(id, 0, v, 10, 0, 5))
			if err != nil || !out.Accepted || out.Planned != (v == 0) {
				t.Fatalf("swap=%v: request at ingress %d = (%+v, %v), want accepted, planned only at ingress 0", swap, v, out, err)
			}
		}
		if got, want := e.PlannedResidual(0, 0), p.Classes[0].PlannedDemand()-10; got != want {
			t.Fatalf("swap=%v: PlannedResidual(0, 0) = %v, want %v", swap, got, want)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
