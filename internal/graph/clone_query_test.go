package graph

import (
	"math"
	"testing"
)

// TestCloneDeepCopySemantics extends TestCloneIsDeep to every mutable
// part of a Graph: link fields, cost fields, and — the subtle one — the
// adjacency, which a shallow copy would share with the original.
func TestCloneDeepCopySemantics(t *testing.T) {
	g := New()
	a := g.AddNode(Node{Name: "a", Tier: TierEdge, Cap: 10, Cost: 1})
	b := g.AddNode(Node{Name: "b", Tier: TierCore, Cap: 20, Cost: 2})
	g.AddNode(Node{Name: "c", Tier: TierCore, Cap: 30, Cost: 3})
	g.AddLink(a, b, 5, 1)

	c := g.Clone()

	// Capacity, cost and link mutations stay on the clone.
	c.SetNodeCost(0, 99)
	c.SetLinkCap(0, 999)
	if g.Node(0).Cost == 99 {
		t.Error("mutating clone node cost changed original")
	}
	if g.Link(0).Cap == 999 {
		t.Error("mutating clone link capacity changed original")
	}

	// Adding a link to the clone must not grow the original's adjacency.
	c.AddLink(1, 2, 7, 1)
	if g.NumLinks() != 1 {
		t.Fatalf("original gained a link: NumLinks = %d, want 1", g.NumLinks())
	}
	if g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Errorf("original adjacency mutated: deg(b)=%d deg(c)=%d, want 1, 0", g.Degree(1), g.Degree(2))
	}
	if c.Degree(1) != 2 || c.Degree(2) != 1 {
		t.Errorf("clone adjacency wrong: deg(b)=%d deg(c)=%d, want 2, 1", c.Degree(1), c.Degree(2))
	}

	// The clone is a fully functional graph: paths work on both.
	if _, ok := g.DijkstraLinkWeightsInto(nil, 1, costs(g)).PathTo(2); ok {
		t.Error("original unexpectedly routes b→c")
	}
	if _, ok := c.DijkstraLinkWeightsInto(nil, 1, costs(c)).PathTo(2); !ok {
		t.Error("clone cannot route over its own new link")
	}
}

// square builds 0-1-2-3-0 with distinct costs so every exclusion has a
// unique alternative.
func square() *Graph {
	g := New()
	for i := 0; i < 4; i++ {
		g.AddNode(Node{Name: string(rune('a' + i)), Tier: TierEdge, Cap: 10, Cost: 1})
	}
	g.AddLink(0, 1, 10, 1) // link 0
	g.AddLink(1, 2, 10, 1) // link 1
	g.AddLink(2, 3, 10, 1) // link 2
	g.AddLink(3, 0, 10, 2) // link 3
	return g
}

// TestExcludedElementQueries covers restricted shortest-path queries
// directly at the graph layer: a weight vector holding +Inf for an
// exclusion set must reroute, and excluding a cut set must report
// unreachability.
func TestExcludedElementQueries(t *testing.T) {
	g := square()

	lw := costs(g)
	lw[1] = math.Inf(1)
	p, ok := g.DijkstraLinkWeightsInto(nil, 0, lw).PathTo(2)
	if !ok || p.Cost != 3 || p.Len() != 2 || p.Links[0] != 3 || p.Links[1] != 2 {
		t.Fatalf("excluded query path = %+v, %v; want links [3 2] cost 3", p, ok)
	}

	// Excluding the 0-1/3-0 cut isolates node 0.
	lw = costs(g)
	lw[0], lw[3] = math.Inf(1), math.Inf(1)
	tr := g.DijkstraLinkWeightsInto(nil, 0, lw)
	if _, ok := tr.PathTo(2); ok {
		t.Fatal("query across an excluded cut reported a path")
	}
	for dst := 1; dst < 4; dst++ {
		if !math.IsInf(tr.Dist[dst], 1) {
			t.Fatalf("Dist[%d] = %g across an excluded cut, want +Inf", dst, tr.Dist[dst])
		}
	}
}

// TestDijkstraIntoReuse verifies the buffer-reusing entry point: trees
// recomputed in place under changing weights and sources must be
// indistinguishable from freshly allocated ones.
func TestDijkstraIntoReuse(t *testing.T) {
	g := square()
	var tr *ShortestPathTree
	for iter := 0; iter < 3; iter++ {
		lw := costs(g)
		for i := range lw {
			lw[i] *= float64(iter + 1)
		}
		for src := 0; src < g.NumNodes(); src++ {
			tr = g.DijkstraLinkWeightsInto(tr, NodeID(src), lw)
			fresh := g.DijkstraLinkWeightsInto(nil, NodeID(src), lw)
			for dst := 0; dst < g.NumNodes(); dst++ {
				if tr.Dist[dst] != fresh.Dist[dst] {
					t.Fatalf("iter %d src %d: reused Dist[%d] = %g, fresh %g",
						iter, src, dst, tr.Dist[dst], fresh.Dist[dst])
				}
				pa, oka := tr.PathTo(NodeID(dst))
				pb, okb := fresh.PathTo(NodeID(dst))
				if oka != okb || len(pa.Links) != len(pb.Links) {
					t.Fatalf("iter %d src %d dst %d: reused path differs from fresh", iter, src, dst)
				}
				for i := range pa.Links {
					if pa.Links[i] != pb.Links[i] {
						t.Fatalf("iter %d src %d dst %d: link %d differs", iter, src, dst, i)
					}
				}
			}
		}
	}
}
