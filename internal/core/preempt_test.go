package core

import (
	"math"
	"slices"
	"testing"

	"github.com/olive-vne/olive/internal/embedder"
	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/plan"
	"github.com/olive-vne/olive/internal/substrate"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
	"github.com/olive-vne/olive/internal/workload"
)

// overloadFixture is a pinned overload scenario (u = 1.4, where OLIVE
// borrows and preempts all the time): a topology, the default app mix, an
// online trace, and two plans — one from the history before the trace, one
// from the trace itself — so tests can swap between them.
type overloadFixture struct {
	g     *graph.Graph
	apps  []*vnet.App
	plans [2]*plan.Plan
	slots [][]workload.Request
}

func newOverloadFixture(tb testing.TB, name topo.Name, histSlots, onlineSlots int) *overloadFixture {
	tb.Helper()
	g := topo.MustBuild(name, 1)
	rng := testRNG(1)
	apps := vnet.DefaultMix(vnet.DefaultParams(), rng)
	wp := workload.DefaultParams().WithUtilization(1.4)
	wp.Slots = histSlots + onlineSlots
	tr, err := workload.GenerateMMPP(g, wp, rng)
	if err != nil {
		tb.Fatal(err)
	}
	hist, online, err := tr.Split(histSlots)
	if err != nil {
		tb.Fatal(err)
	}
	f := &overloadFixture{g: g, apps: apps, slots: online.PerSlot()}
	popts := plan.DefaultOptions()
	popts.BootstrapB = 20
	for i, h := range []*workload.Trace{hist, online} {
		p, err := plan.BuildFromHistory(g, apps, h, popts, rng)
		if err != nil {
			tb.Fatal(err)
		}
		if p.Empty() {
			tb.Fatalf("fixture plan %d came out empty", i)
		}
		f.plans[i] = p
	}
	return f
}

func sameFloats(a, b []float64) bool {
	return slices.Equal(a, b) // residuals are never NaN, so == is bit identity up to ±0
}

// TestPreemptMatchesReference drives two engines in lock-step through
// seeded random sequences of StartSlot / Process / ReleaseByID / SwapPlan
// (and transient capacity dips) under overload — one through
// Engine.Process (indexed PREEMPT), one through processReference (the
// O(active) scan) — and demands the same outcome for every request:
// acceptance, the preempted IDs in order, and a bit-identical residual
// vector. A request that is rejected with nobody preempted must leave no
// trace at all.
func TestPreemptMatchesReference(t *testing.T) {
	cases := []struct {
		name              topo.Name
		hist, online, run int
	}{
		{topo.Iris, 25, 40, 16},
		{topo.Random100, 12, 10, 8},
	}
	if testing.Short() {
		cases = cases[:1]
	}
	for _, c := range cases {
		f := newOverloadFixture(t, c.name, c.hist, c.online)
		caps := f.g.Capacities()
		var total PreemptStats
		swaps, releases := 0, 0
		for seed := uint64(1); seed <= uint64(c.run); seed++ {
			rng := testRNG(1000 + seed)
			got, err := NewEngine(f.g, f.apps, Options{Plan: f.plans[0]})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewEngine(f.g, f.apps, Options{Plan: f.plans[0]})
			if err != nil {
				t.Fatal(err)
			}
			var live []int // IDs accepted so far; some have departed
			before := make([]float64, f.g.NumElements())
			dip := make([]float64, f.g.NumElements())
			for ts, rs := range f.slots {
				got.StartSlot(ts)
				ref.StartSlot(ts)
				if rng.IntN(8) == 0 {
					// Usually to the other plan; sometimes to none (the
					// index is dropped) and back (rebuilt from the actives).
					var p *plan.Plan
					if rng.IntN(4) != 0 {
						p = f.plans[rng.IntN(2)]
					}
					got.SwapPlan(p)
					ref.SwapPlan(p)
					swaps++
				}
				for _, r := range rs {
					if len(live) > 0 && rng.IntN(25) == 0 {
						id := live[rng.IntN(len(live))]
						a, b := got.ReleaseByID(id), ref.ReleaseByID(id)
						if a != b {
							t.Fatalf("%s seed %d: ReleaseByID(%d) = %v, reference %v", c.name, seed, id, a, b)
						}
						if a {
							releases++
						}
					}
					// A transient capacity dip on one element (what a
					// serving shard sees when it donates capacity) is how
					// PREEMPT comes to fail: a plan never overbooks an
					// element on its own, so without the dip the borrowers
					// always hold enough.
					dipped := rng.IntN(30) == 0
					if dipped {
						el := rng.IntN(len(dip))
						dip[el] = -(got.ResidualView()[el] + rng.Float64()*caps[el])
						got.State().AddResidual(dip)
						ref.State().AddResidual(dip)
						dip[el] = -dip[el]
					}
					copy(before, got.ResidualView())
					activeBefore := got.ActiveCount()
					out, err := got.Process(r)
					if err != nil {
						t.Fatal(err)
					}
					want := processReference(ref, r)
					if out.Accepted != want.Accepted || out.Planned != want.Planned || !slices.Equal(out.Preempted, want.Preempted) {
						t.Fatalf("%s seed %d slot %d request %d: got accepted=%v planned=%v preempted=%v, reference accepted=%v planned=%v preempted=%v",
							c.name, seed, ts, r.ID, out.Accepted, out.Planned, out.Preempted, want.Accepted, want.Planned, want.Preempted)
					}
					if !sameFloats(got.ResidualView(), ref.ResidualView()) {
						t.Fatalf("%s seed %d slot %d request %d: residual vectors diverged", c.name, seed, ts, r.ID)
					}
					if !out.Accepted && len(out.Preempted) == 0 &&
						(got.ActiveCount() != activeBefore || !sameFloats(got.ResidualView(), before)) {
						t.Fatalf("%s seed %d slot %d request %d: a rejection without victims changed the engine", c.name, seed, ts, r.ID)
					}
					if out.Accepted {
						live = append(live, r.ID)
					}
					if dipped {
						got.State().AddResidual(dip)
						ref.State().AddResidual(dip)
						clear(dip)
					}
				}
				for _, e := range []*Engine{got, ref} {
					if err := e.CheckInvariants(); err != nil {
						t.Fatalf("%s seed %d slot %d: %v", c.name, seed, ts, err)
					}
				}
			}
			st := got.PreemptStats()
			total.Calls += st.Calls
			total.Failed += st.Failed
			total.CandidatesScored += st.CandidatesScored
			total.Victims += st.Victims
		}
		t.Logf("%s: %d seeds, %+v, %d plan swaps, %d early releases", c.name, c.run, total, swaps, releases)
		// The sequences must have exercised what the test is about.
		if total.Victims == 0 || total.Failed == 0 || swaps == 0 || releases == 0 {
			t.Fatalf("%s: vacuous run: %+v, %d swaps, %d releases", c.name, total, swaps, releases)
		}
	}
}

// TestDuplicateActiveIDRejected is the regression test for the capacity
// leak: Process on an ID that is still active used to overwrite the active
// record, so the first allocation was never released and the residual
// never returned to capacity. It must be an error that changes nothing.
func TestDuplicateActiveIDRejected(t *testing.T) {
	g := tinySubstrate()
	app := tinyApp()
	for _, opts := range []Options{{}, {Plan: manualPlan(t, g, app, 5)}} {
		e, err := NewEngine(g, []*vnet.App{app}, opts)
		if err != nil {
			t.Fatal(err)
		}
		e.StartSlot(0)
		if out, err := e.Process(req(7, 0, 0, 10, 0, 5)); err != nil || !out.Accepted {
			t.Fatalf("%v: first Process = (%+v, %v), want accepted", e.Algorithm(), out, err)
		}
		before := slices.Clone(e.ResidualView())
		out, err := e.Process(req(7, 0, 0, 10, 0, 9))
		if err == nil || out.Accepted {
			t.Fatalf("%v: Process on a still-active ID = (%+v, %v), want an error", e.Algorithm(), out, err)
		}
		if e.ActiveCount() != 1 || !sameFloats(slices.Clone(e.ResidualView()), before) {
			t.Fatalf("%v: the rejected duplicate changed engine state", e.Algorithm())
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", e.Algorithm(), err)
		}
		e.StartSlot(100) // drain
		if e.ActiveCount() != 0 || !sameFloats(slices.Clone(e.ResidualView()), g.Capacities()) {
			t.Fatalf("%v: capacity leaked: residual %v after the drain, capacity %v", e.Algorithm(), slices.Clone(e.ResidualView()), g.Capacities())
		}
		// Once departed, the ID is free again.
		if out, err := e.Process(req(7, 0, 0, 10, 100, 5)); err != nil || !out.Accepted {
			t.Fatalf("%v: reuse of a departed ID = (%+v, %v), want accepted", e.Algorithm(), out, err)
		}
	}
}

// TestBadDemandRejected: a malformed request must be an error that
// changes nothing — residual bit-equal, active count unchanged — under
// OLIVE, QUICKG and FULLG alike. A NaN demand used to fit everywhere, be
// accepted and leave NaN in the residuals, and a negative one raised
// residuals above capacity. A duration below one slot was accepted and
// held its capacity until the next StartSlot, and so did a request that
// departs at or before the current slot; a departure slot past
// math.MaxInt wrapped around and was released at once, and an ingress
// outside the substrate was counted as a rejection. Each engine is warmed
// with a few slots of an overload trace first, and each bad request
// copies the next real one, which every engine would otherwise weigh.
func TestBadDemandRejected(t *testing.T) {
	f := newOverloadFixture(t, topo.Iris, 25, 12)
	bad := []struct {
		name string
		edit func(r *workload.Request)
	}{
		{"NaN demand", func(r *workload.Request) { r.Demand = math.NaN() }},
		{"zero demand", func(r *workload.Request) { r.Demand = 0 }},
		{"negative demand", func(r *workload.Request) { r.Demand = -5 }},
		{"+Inf demand", func(r *workload.Request) { r.Demand = math.Inf(1) }},
		{"-Inf demand", func(r *workload.Request) { r.Demand = math.Inf(-1) }},
		{"zero duration", func(r *workload.Request) { r.Duration = 0 }},
		{"negative duration", func(r *workload.Request) { r.Duration = -3 }},
		{"overflowing departure", func(r *workload.Request) { r.Arrive, r.Duration = 5, math.MaxInt }},
		{"departure before the current slot", func(r *workload.Request) { r.Arrive, r.Duration = 0, 2 }},
		{"departure at the current slot", func(r *workload.Request) { r.Arrive, r.Duration = 1, 2 }},
		{"negative ingress", func(r *workload.Request) { r.Ingress = -1 }},
		{"ingress past the substrate", func(r *workload.Request) { r.Ingress = 1 << 20 }},
	}
	for _, opts := range []Options{{Plan: f.plans[0]}, {}, {Exact: true}} {
		e, err := NewEngine(f.g, f.apps, opts)
		if err != nil {
			t.Fatal(err)
		}
		for ts := 0; ts < 3; ts++ {
			e.StartSlot(ts)
			for _, r := range f.slots[ts] {
				if _, err := e.Process(r); err != nil {
					t.Fatal(err)
				}
			}
		}
		e.StartSlot(3)
		next := f.slots[3][0]
		for k, b := range bad {
			before, active := slices.Clone(e.ResidualView()), e.ActiveCount()
			r := next
			r.ID = 1<<40 + k // its own ID, should a row be accepted
			b.edit(&r)
			out, err := e.Process(r)
			if err == nil || out.Accepted {
				t.Errorf("%v: Process with %s = (%+v, %v), want an error", e.Algorithm(), b.name, out, err)
				continue
			}
			after := slices.Clone(e.ResidualView())
			for i := range before {
				if math.Float64bits(after[i]) != math.Float64bits(before[i]) {
					t.Fatalf("%v: %s moved residual[%d] from %v to %v", e.Algorithm(), b.name, i, before[i], after[i])
				}
			}
			if e.ActiveCount() != active {
				t.Fatalf("%v: %s changed the active count", e.Algorithm(), b.name)
			}
		}
		if t.Failed() {
			return
		}
		if _, err := e.Process(next); err != nil {
			t.Fatalf("%v: the real request after the rejected ones: %v", e.Algorithm(), err)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", e.Algorithm(), err)
		}
	}
}

// TestBorrowerIndexLifecycle pins who has an index and what is in it:
// engines without a plan never build one, SwapPlan to a plan builds it
// from the actives (all of them borrowers now), SwapPlan to no plan drops
// it, and a drained engine's lists hold nothing — not even a stale pointer
// in their backing arrays.
func TestBorrowerIndexLifecycle(t *testing.T) {
	f := newOverloadFixture(t, topo.Iris, 25, 12)
	feed := func(e *Engine, from, to int) {
		t.Helper()
		for ts := from; ts < to; ts++ {
			e.StartSlot(ts)
			for _, r := range f.slots[ts] {
				if _, err := e.Process(r); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	listed := func(e *Engine) int {
		n := 0
		for i := range e.borrowers {
			n += len(e.borrowers[i].refs) - e.borrowers[i].dead
		}
		return n
	}

	for _, exact := range []bool{false, true} {
		e, err := NewEngine(f.g, f.apps, Options{Exact: exact})
		if err != nil {
			t.Fatal(err)
		}
		feed(e, 0, 3)
		if e.borrowers != nil || e.preDeficit != nil {
			t.Fatalf("%v built a borrower index", e.Algorithm())
		}
	}

	e, err := NewEngine(f.g, f.apps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feed(e, 0, 6)
	e.SwapPlan(f.plans[0])
	uses := 0
	for _, ar := range e.recs {
		if ar.emb != nil {
			uses += len(ar.emb.UnitUse())
		}
	}
	if got := listed(e); got != uses || uses == 0 {
		t.Fatalf("after SwapPlan the index lists %d entries, the actives use %d elements", got, uses)
	}
	feed(e, 6, 12)
	if st := e.PreemptStats(); st.Victims == 0 {
		t.Fatalf("no preemption under overload: %+v", st)
	}

	e.StartSlot(1 << 30) // drain
	if e.ActiveCount() != 0 {
		t.Fatalf("%d requests survive the drain", e.ActiveCount())
	}
	for el := range e.borrowers {
		l := e.borrowers[el]
		if len(l.refs) != 0 || l.dead != 0 {
			t.Fatalf("element %d still lists %d borrowers (%d dead) after the drain", el, len(l.refs), l.dead)
		}
		for _, ar := range l.refs[:cap(l.refs)] {
			if ar != nil {
				t.Fatalf("element %d pins a released record in its backing array", el)
			}
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	e.SwapPlan(nil)
	if e.borrowers != nil {
		t.Fatal("SwapPlan(nil) kept the borrower index")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEnginePreemptOverload is the OLIVE batch loop on the pinned
// 100n150e u=1.4 fixture — one op is a fresh engine over the shared warm
// substrate state and one pass over the online trace — with PREEMPT's own
// work beside it: relief evaluations and victims per call. orders/op is
// the greedy fallback's candidate orders built per pass: the warm-up pass
// builds at most one per (app, ingress), and a pass over the warm oracle
// none. Under the CI guard (testdata/bench_baseline.json) for allocs/op,
// B/op and orders/op.
func BenchmarkEnginePreemptOverload(b *testing.B) {
	f := newOverloadFixture(b, topo.Random100, 20, 40)
	oracle := embedder.ForState(substrate.New(f.g))
	var st PreemptStats
	pass := func() {
		e, err := NewEngineOn(oracle, f.apps, Options{Plan: f.plans[0]})
		if err != nil {
			b.Fatal(err)
		}
		for ts, rs := range f.slots {
			e.StartSlot(ts)
			for _, r := range rs {
				if _, err := e.Process(r); err != nil {
					b.Fatal(err)
				}
			}
		}
		st = e.PreemptStats()
	}
	pass() // warm the state's path and collocated-embedding caches
	if st.Victims == 0 {
		b.Fatalf("fixture never preempts: %+v", st)
	}
	orders := oracle.Work().CollocOrders
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.StopTimer()
	b.ReportMetric(float64(oracle.Work().CollocOrders-orders)/float64(b.N), "orders/op")
	b.ReportMetric(float64(st.CandidatesScored)/float64(st.Calls), "cands/preempt")
	b.ReportMetric(float64(st.Victims)/float64(st.Calls), "victims/preempt")
}
