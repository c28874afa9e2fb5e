package core

import (
	"fmt"
	"slices"
	"testing"

	"github.com/olive-vne/olive/internal/embedder"
	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/substrate"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
	"github.com/olive-vne/olive/internal/workload"
)

// overloadSlots is a seeded trace of few, large requests at utilization u
// over the default app mix (one arrival per edge node per slot, demand
// calibrated as sim.Run does: E[d] = u·100/λ). At u = 1.4 FULLG's
// relaxation keeps landing on saturated nodes and links and exactEmbed
// branches out; u = 1.0 is the repository benchmark's FULLG load.
func overloadSlots(tb testing.TB, name topo.Name, seed uint64, slots int, u float64) (*graph.Graph, []*vnet.App, [][]workload.Request) {
	tb.Helper()
	g := topo.MustBuild(name, seed)
	rng := testRNG(seed)
	apps := vnet.DefaultMix(vnet.DefaultParams(), rng)
	wp := workload.DefaultParams().WithUtilization(u)
	wp.Slots = slots
	wp.LambdaPerNode = 1
	wp.DemandMean = u * 100 / wp.LambdaPerNode
	tr, err := workload.GenerateMMPP(g, wp, rng)
	if err != nil {
		tb.Fatal(err)
	}
	return g, apps, tr.PerSlot()
}

// refNode is a search node of exactEmbedReference: its bans and excluded
// elements (Solve sorts its own copies) and its solved relaxation.
type refNode struct {
	bans []embedder.Ban
	excl []graph.ElementID
	emb  *vnet.Embedding
	cost float64
}

// exactEmbedReference is Engine.exactEmbed with nothing carried from one
// solve to the next: every relaxation runs on a fresh oracle over a fresh
// substrate state under the engine's (cost) prices, so it fills its own DP
// table from scratch, builds its own exclusion view and shortest-path
// trees, and materializes its embedding at once. The search around the
// solves is exactEmbed's, line for line.
// viewSolves counts the solves that excluded at least one element.
func exactEmbedReference(e *Engine, app *vnet.App, r workload.Request, viewSolves *int) *vnet.Embedding {
	prices := embedder.CostPrices(e.g)
	solve := func(n *refNode) bool {
		if len(n.excl) > 0 {
			*viewSolves++
		}
		o := embedder.NewOracle(e.g, prices)
		var t embedder.Table
		if !o.Solve(&t, app, r.Ingress, n.bans, n.excl) {
			return false
		}
		var ok bool
		n.emb, ok = o.Embedding(&t)
		n.cost = t.Price()
		return ok
	}

	root := &refNode{}
	if !solve(root) {
		return nil
	}
	open := []*refNode{root}
	for budget := defaultExactRetries * 4; budget > 0 && len(open) > 0; budget-- {
		best := 0
		for i := range open {
			if open[i].cost < open[best].cost {
				best = i
			}
		}
		n := open[best]
		open = append(open[:best], open[best+1:]...)

		if e.st.Fits(n.emb, r.Demand) {
			return n.emb
		}
		res := e.st.ResidualVec()
		var violated graph.ElementID = -1
		for _, u := range n.emb.UnitUse() {
			if u.Amount*r.Demand > res[u.Elem] {
				violated = u.Elem
				break
			}
		}
		if violated < 0 {
			continue
		}
		if node, isNode := e.g.ElementNode(violated); isNode {
			for i, host := range n.emb.NodeMap {
				vid := vnet.VNFID(i)
				if vid == vnet.Root || host != node {
					continue
				}
				c := &refNode{bans: append(slices.Clone(n.bans), embedder.Ban{V: vid, U: node}), excl: n.excl}
				if solve(c) {
					open = append(open, c)
				}
			}
		} else {
			c := &refNode{bans: n.bans, excl: append(slices.Clone(n.excl), violated)}
			if solve(c) {
				open = append(open, c)
			}
		}
	}
	return nil
}

// TestExactEmbedMatchesReference runs FULLG over a seeded overload trace in
// lock-step with an engine whose every relaxation starts from nothing, and
// demands the same decision, the same embedding and a bit-identical
// residual vector after every request: the oracle's kept DP table (the
// root relaxation of every request reads it) and the exclusion view's kept
// trees (sibling branch-and-bound children share them) must not show.
//
// It runs at u = 1.4 and at u = 1.0, the repository benchmark's FULLG
// load. 14 slots are long enough for a second link to saturate, so views
// are re-acquired both under the link set they hold and under another.
func TestExactEmbedMatchesReference(t *testing.T) {
	for _, c := range []struct {
		u    float64
		seed uint64
	}{{1.4, 2}, {1.0, 1}} {
		t.Run(fmt.Sprintf("u=%.1f", c.u), func(t *testing.T) {
			g, apps, perSlot := overloadSlots(t, topo.Iris, c.seed, 14, c.u)
			exactEmbedMatchesReference(t, g, apps, perSlot)
		})
	}
}

func exactEmbedMatchesReference(t *testing.T, g *graph.Graph, apps []*vnet.App, perSlot [][]workload.Request) {
	got, err := NewEngine(g, apps, Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewEngine(g, apps, Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	es := embedder.Stats()
	requests, accepted, split, viewSolves := 0, 0, 0, 0
	for ts, rs := range perSlot {
		got.StartSlot(ts)
		ref.StartSlot(ts)
		for _, r := range rs {
			out, err := got.Process(r)
			if err != nil {
				t.Fatal(err)
			}
			want := exactEmbedReference(ref, apps[r.App], r, &viewSolves)
			if want != nil && !ref.st.Fits(want, r.Demand) {
				want = nil
			}
			if out.Accepted != (want != nil) {
				t.Fatalf("slot %d request %d: accepted = %v, reference %v", ts, r.ID, out.Accepted, want != nil)
			}
			requests++
			if want == nil {
				continue
			}
			ref.allocate(r, want, false, -1, -1)
			accepted++
			if !want.Collocated() {
				split++
			}
			same := slices.Equal(out.Emb.NodeMap, want.NodeMap)
			for li := 0; same && li < len(want.PathMap); li++ {
				same = slices.Equal(out.Emb.PathMap[li].Links, want.PathMap[li].Links)
			}
			if !same {
				t.Fatalf("slot %d request %d: embedded on %v, reference %v", ts, r.ID, out.Emb.NodeMap, want.NodeMap)
			}
			if !sameFloats(got.ResidualView(), ref.ResidualView()) {
				t.Fatalf("slot %d request %d: residual vectors diverged", ts, r.ID)
			}
		}
	}
	ed := embedder.Stats()
	hits, trees := ed.DPTableHits-es.DPTableHits, got.State().ViewTreeBuilds()
	t.Logf("%d requests, %d accepted (%d split), %d table hits, %d fills on both sides, %d ban rescans, %d solves through a view, %d view trees built by the engine",
		requests, accepted, split, hits, ed.DPFills-es.DPFills, ed.BanRescans-es.BanRescans, viewSolves, trees)
	if hits == 0 || accepted == requests || split == 0 {
		t.Fatal("vacuous run: the trace never reused a table, never rejected or never split an embedding")
	}
	// Every view solve reads all n trees, so anything under n per solve
	// is trees kept from one acquisition to the next.
	if n := uint64(g.NumNodes()); trees < 2*n || trees >= uint64(viewSolves)*n {
		t.Fatalf("vacuous run: %d view trees built over %d view solves on %d nodes — no excluded link set changed, or none repeated", trees, viewSolves, n)
	}
	for _, e := range []*Engine{got, ref} {
		if err := e.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkExactEmbedBranchOut is FULLG on a saturating Iris substrate: one
// op is a fresh engine over the shared warm substrate state and one pass
// over a u = 1.4 trace, nearly all of it exactEmbed's branch-out. Beside
// the time it reports the machine-independent work of a pass: DP tables
// filled from scratch (the root's memo table aside, only link-exclusion
// children), DP entries rescanned by ban children, child entries examined
// by the link scans of both (embedder.Stats().LinkScans), and
// shortest-path trees built by exclusion views — the Dijkstras sibling
// branch-and-bound children no longer repeat.
func BenchmarkExactEmbedBranchOut(b *testing.B) {
	g, apps, perSlot := overloadSlots(b, topo.Iris, 1, 12, 1.4)
	st := substrate.New(g)
	oracle := embedder.ForState(st)
	pass := func() {
		e, err := NewEngineOn(oracle, apps, Options{Exact: true})
		if err != nil {
			b.Fatal(err)
		}
		for ts, rs := range perSlot {
			e.StartSlot(ts)
			for _, r := range rs {
				if _, err := e.Process(r); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	pass()
	trees, es := st.ViewTreeBuilds(), embedder.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.StopTimer()
	ed := embedder.Stats()
	b.ReportMetric(float64(st.ViewTreeBuilds()-trees)/float64(b.N), "viewtrees/op")
	b.ReportMetric(float64(ed.DPFills-es.DPFills)/float64(b.N), "fills/op")
	b.ReportMetric(float64(ed.BanRescans-es.BanRescans)/float64(b.N), "rescans/op")
	b.ReportMetric(float64(ed.LinkScans-es.LinkScans)/float64(b.N), "scans/op")
}
