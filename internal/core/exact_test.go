package core

import (
	"encoding/binary"
	"fmt"
	"math"
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
// viewSolves counts the solves that excluded at least one element, and
// linkSets collects the distinct sets of links they excluded.
func exactEmbedReference(e *Engine, app *vnet.App, r workload.Request, viewSolves *int, linkSets map[string]bool) *vnet.Embedding {
	prices := embedder.CostPrices(e.g)
	solve := func(n *refNode) bool {
		if len(n.excl) > 0 {
			*viewSolves++
			links := slices.DeleteFunc(slices.Clone(n.excl), e.g.ElementIsNode)
			slices.Sort(links)
			linkSets[fmt.Sprint(links)] = true
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

		violated, over := n.emb.FirstViolated(e.st.ResidualVec(), r.Demand)
		if !over {
			return n.emb
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

// TestExactEmbedBranchesOnlyOnOverloads: FULLG must branch on an element
// the request does not fit, never on one Fits lets it use. Node B is
// short of the request's 10 CU by 5e-8 CU, within Fits' tolerance, and
// its ID is lower than that of the A–B link, which is short by 5 CU. The
// relaxation puts the VNF on B over A–B (price 2). Excluding A–B keeps B
// and takes the detour A–D–B (price 3). Banning B, as a search that does
// not read the tolerance would, moves the VNF to C (price 11).
func TestExactEmbedBranchesOnlyOnOverloads(t *testing.T) {
	g := graph.New()
	g.AddNode(graph.Node{Name: "A", Tier: graph.TierEdge, Cap: 100, Cost: 20})
	g.AddNode(graph.Node{Name: "B", Tier: graph.TierTransport, Cap: 10 - 5e-8, Cost: 1})
	g.AddNode(graph.Node{Name: "C", Tier: graph.TierTransport, Cap: 100, Cost: 10})
	g.AddNode(graph.Node{Name: "D", Tier: graph.TierTransport, Cap: 100, Cost: 50})
	ab := g.AddLink(0, 1, 5, 1)
	g.AddLink(0, 2, 100, 1)
	ad := g.AddLink(0, 3, 100, 1)
	db := g.AddLink(3, 1, 100, 1)
	app := &vnet.App{
		Name: "one", Kind: vnet.KindChain,
		VNFs:  []vnet.VNF{{ID: 0}, {ID: 1, Size: 1}},
		Links: []vnet.VLink{{From: 0, To: 1, Size: 1}},
	}
	e, err := NewEngine(g, []*vnet.App{app}, Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeElement(1) > g.LinkElement(ab) {
		t.Fatal("node B must come before link A–B in element order")
	}
	e.StartSlot(0)
	out, err := e.Process(workload.Request{ID: 0, App: 0, Ingress: 0, Demand: 10, Duration: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Accepted {
		t.Fatal("rejected: the search branched on node B, which fits")
	}
	if got := out.Emb.NodeMap[1]; got != 1 || !slices.Equal(out.Emb.PathMap[0].Links, []graph.LinkID{ad, db}) {
		t.Fatalf("embedded on node %d over %v, want node B over the detour %v", got, out.Emb.PathMap[0].Links, []graph.LinkID{ad, db})
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
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
			exactEmbedMatchesReference(t, g, apps, perSlot, (*Engine).Process)
		})
	}
}

// TestExactEmbedMemoClearsWhenFull runs TestExactEmbedMatchesReference's
// lock-step at u = 1.0 with the search memo topped up with placeholders
// to one entry short of bbMemoCap before each request, until a search has
// cleared it whole after putting in entries of its own: nodes already on
// that search's open list then hold entries the memo no longer has, and
// its later lookups miss keys it met before. The clear must empty the root
// index too, or the search's root, looked up before the clear, would keep
// every entry linked below it alive past the cap. The placeholders' keys
// start with the app index len(apps), which no request has, so none can
// answer a real lookup.
func TestExactEmbedMemoClearsWhenFull(t *testing.T) {
	g, apps, perSlot := overloadSlots(t, topo.Iris, 1, 14, 1.0)
	placeholder := &bbEntry{price: math.Inf(1)}
	k, requests, midSearch := uint64(0), 0, -1
	process := func(e *Engine, r workload.Request) (Outcome, error) {
		for midSearch < 0 && e.bbSize < bbMemoCap-1 {
			key := binary.AppendUvarint(binary.AppendUvarint(nil, uint64(len(apps))), k)
			e.bbMemo[string(key)] = placeholder
			e.bbSize++
			k++
		}
		misses := e.bbStats.misses
		out, err := e.Process(r)
		// Without a clear the memo gains every miss; after a clear at the
		// search's first miss it holds exactly them, and after a later one
		// fewer.
		if midSearch < 0 && e.bbSize < e.bbStats.misses-misses {
			midSearch = requests
			if i := slices.IndexFunc(e.bbRoots, func(ent *bbEntry) bool { return ent != nil }); i >= 0 {
				t.Fatalf("request %d cleared the memo mid-search, but the root index still holds entry %d", requests, i)
			}
		}
		requests++
		return out, err
	}
	exactEmbedMatchesReference(t, g, apps, perSlot, process)
	t.Logf("%d placeholders put in; request %d of %d cleared the memo mid-search", k, midSearch, requests)
	if midSearch < 0 {
		t.Fatal("vacuous run: no search cleared the memo after putting in entries of its own")
	}
}

// exactEmbedMatchesReference runs got, an Exact engine, through perSlot by
// process (Engine.Process, or a wrapper around it) in lock-step with
// exactEmbedReference, and checks every decision, embedding and residual.
func exactEmbedMatchesReference(t *testing.T, g *graph.Graph, apps []*vnet.App, perSlot [][]workload.Request, process func(*Engine, workload.Request) (Outcome, error)) {
	got, err := NewEngine(g, apps, Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewEngine(g, apps, Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	requests, accepted, split, viewSolves := 0, 0, 0, 0
	linkSets := make(map[string]bool)
	for ts, rs := range perSlot {
		got.StartSlot(ts)
		ref.StartSlot(ts)
		for _, r := range rs {
			out, err := process(got, r)
			if err != nil {
				t.Fatal(err)
			}
			want := exactEmbedReference(ref, apps[r.App], r, &viewSolves, linkSets)
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
			if !sameEmbedding(out.Emb, want) {
				t.Fatalf("slot %d request %d: embedded on %v, reference %v", ts, r.ID, out.Emb.NodeMap, want.NodeMap)
			}
			if !sameFloats(got.ResidualView(), ref.ResidualView()) {
				t.Fatalf("slot %d request %d: residual vectors diverged", ts, r.ID)
			}
		}
	}
	w := got.oracle.Work()
	hits, trees := w.DPTableHits, got.State().ViewTreeBuilds()
	xrescans := w.ExclRescans
	t.Logf("%d requests, %d accepted (%d split), %d table hits, %d fills, %d ban rescans, %d exclusion rescans by the engine, %d solves through a view under %d excluded-link sets, %d view trees built by the engine",
		requests, accepted, split, hits, w.DPFills, w.BanRescans, xrescans, viewSolves, len(linkSets), trees)
	if hits == 0 || accepted == requests || split == 0 {
		t.Fatal("vacuous run: the trace never reused a table, never rejected or never split an embedding")
	}
	// Exclusion children are derived, not refilled: the search must have
	// excluded more than one set of links, and its exclusion children
	// must have rescanned entries and built view trees — only for the
	// sources they rescan, so far fewer than one per view solve.
	if len(linkSets) < 2 || xrescans == 0 || trees == 0 || trees >= uint64(viewSolves) {
		t.Fatalf("vacuous run: %d exclusion rescans, %d view trees built over %d view solves under %d excluded-link sets",
			xrescans, trees, viewSolves, len(linkSets))
	}
	// The search memo must have served nodes, popped embeddings and, for
	// a miss below a hit, re-derived the hit's table along the search path.
	// Most hits must have been found by following a link.
	ms := got.bbStats
	t.Logf("search memo: %d hits (%d by a link), %d misses, %d popped embeddings served, %d misses below a hit without a table",
		ms.hits, ms.linkHits, ms.misses, ms.embHits, ms.chained)
	if ms.hits == 0 || ms.linkHits == 0 || ms.embHits == 0 || ms.chained == 0 {
		t.Fatalf("vacuous run: the search memo served %d nodes (%d by a link) and %d popped embeddings, and re-derived %d tables for a miss",
			ms.hits, ms.linkHits, ms.embHits, ms.chained)
	}
	for _, e := range []*Engine{got, ref} {
		if err := e.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// sameEmbedding reports whether a and b place every VNF on the same node
// and route every virtual link over the same substrate links.
func sameEmbedding(a, b *vnet.Embedding) bool {
	same := slices.Equal(a.NodeMap, b.NodeMap)
	for li := 0; same && li < len(a.PathMap); li++ {
		same = slices.Equal(a.PathMap[li].Links, b.PathMap[li].Links)
	}
	return same
}

// memoEntries returns the entries of e's search memo that a lookup can
// reach: the roots, the map's entries and every entry linked below them.
func memoEntries(e *Engine) map[*bbEntry]bool {
	seen := make(map[*bbEntry]bool)
	var walk func(ent *bbEntry)
	walk = func(ent *bbEntry) {
		if ent == nil || seen[ent] {
			return
		}
		seen[ent] = true
		for l := ent.links; l != nil; l = l.next {
			walk(l.child)
		}
	}
	for _, ent := range e.bbRoots {
		walk(ent)
	}
	for _, ent := range e.bbMemo {
		walk(ent)
	}
	return seen
}

// TestExactEmbedMemoFollowsPrices: FULLG's search memo holds for one price
// vector only. An engine serves half of a trace, then the busiest link of
// its embeddings becomes 20 times dearer on its State. From then on, its
// decisions and embeddings must be those of a fresh engine built at the
// new prices and given the same allocations, and they must differ, for
// some requests, from what a search at the old prices answers. No entry
// of the old prices may stay reachable by a lookup, through a root, the
// map or a link.
func TestExactEmbedMemoFollowsPrices(t *testing.T) {
	g, apps, perSlot := overloadSlots(t, topo.Iris, 3, 14, 1.0)
	got, err := NewEngine(g, apps, Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	type alloc struct {
		r   workload.Request
		emb *vnet.Embedding
	}
	half := len(perSlot) / 2
	var before [][]alloc
	use := make([]int, g.NumElements())
	for ts, rs := range perSlot[:half] {
		got.StartSlot(ts)
		var slot []alloc
		for _, r := range rs {
			out, err := got.Process(r)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Accepted {
				continue
			}
			slot = append(slot, alloc{r, out.Emb})
			for _, u := range out.Emb.UnitUse() {
				if !g.ElementIsNode(u.Elem) {
					use[u.Elem]++
				}
			}
		}
		before = append(before, slot)
	}
	old := memoEntries(got)
	if len(old) == 0 || got.bbStats.linkHits == 0 {
		t.Fatalf("vacuous run: the memo holds %d entries and served %d link hits before the price change", len(old), got.bbStats.linkHits)
	}
	st := got.State()
	link := graph.ElementID(slices.Index(use, slices.Max(use)))
	oldPrices := make([]float64, g.NumElements())
	for i := range oldPrices {
		oldPrices[i] = st.Price(graph.ElementID(i))
	}
	st.SetPrice(link, 20*st.Price(link))
	newPrices := slices.Clone(oldPrices)
	newPrices[link] = st.Price(link)

	// mirror builds an engine on its own State at the given prices and
	// replays the allocations got made before the change.
	mirror := func(prices []float64) *Engine {
		e, err := NewEngineOn(embedder.ForState(substrate.NewWithPrices(g, prices)), apps, Options{Exact: true})
		if err != nil {
			t.Fatal(err)
		}
		for ts, slot := range before {
			e.StartSlot(ts)
			for _, a := range slot {
				e.allocate(a.r, a.emb, false, -1, -1)
			}
		}
		if !sameFloats(e.ResidualView(), got.ResidualView()) {
			t.Fatal("replayed residuals differ")
		}
		return e
	}
	fresh, stale := mirror(newPrices), mirror(oldPrices)
	requests, moved := 0, 0
	for ts := half; ts < len(perSlot); ts++ {
		for _, e := range []*Engine{got, fresh, stale} {
			e.StartSlot(ts)
		}
		for _, r := range perSlot[ts] {
			out, err := got.Process(r)
			if err != nil {
				t.Fatal(err)
			}
			for ent := range memoEntries(got) {
				if old[ent] {
					t.Fatalf("slot %d request %d: an entry of the old prices (price %g) is still reachable", ts, r.ID, ent.price)
				}
			}
			want, err := fresh.Process(r)
			if err != nil {
				t.Fatal(err)
			}
			if out.Accepted != want.Accepted {
				t.Fatalf("slot %d request %d: accepted = %v, fresh engine %v", ts, r.ID, out.Accepted, want.Accepted)
			}
			requests++
			if !out.Accepted {
				continue
			}
			if !sameEmbedding(out.Emb, want.Emb) {
				t.Fatalf("slot %d request %d: embedded on %v, fresh engine on %v", ts, r.ID, out.Emb.NodeMap, want.Emb.NodeMap)
			}
			if old := stale.exactEmbed(apps[r.App], r); old == nil || !sameEmbedding(old, out.Emb) {
				moved++
			}
			stale.allocate(r, out.Emb, false, -1, -1)
		}
	}
	t.Logf("link %d repriced; %d requests after it, %d embedded otherwise than at the old prices", link, requests, moved)
	if moved == 0 {
		t.Fatal("vacuous run: the price change moved no embedding")
	}
}

// BenchmarkExactEmbedBranchOut is FULLG on a saturating Iris substrate: one
// op is a fresh engine over the shared warm substrate state and one pass
// over a u = 1.4 trace, nearly all of it exactEmbed's branch-out. Beside
// the time it reports the machine-independent work of a pass: DP tables
// filled from scratch (none: the memo tables are warm, and every child is
// derived from its parent's table), DP entries rescanned by ban children
// and by exclusion children (each one link scan over all n child entries),
// and shortest-path trees built by exclusion views — only for the sources
// an excluded link cuts, and not again by siblings that exclude the same
// links.
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
	trees, es := st.ViewTreeBuilds(), oracle.Work()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.StopTimer()
	ed := oracle.Work()
	b.ReportMetric(float64(st.ViewTreeBuilds()-trees)/float64(b.N), "viewtrees/op")
	b.ReportMetric(float64(ed.DPFills-es.DPFills)/float64(b.N), "fills/op")
	b.ReportMetric(float64(ed.BanRescans-es.BanRescans)/float64(b.N), "rescans/op")
	b.ReportMetric(float64(ed.ExclRescans-es.ExclRescans)/float64(b.N), "xrescans/op")
}
