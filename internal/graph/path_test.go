package graph

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// randomConnected builds a random connected graph with n nodes and extra
// random links, unit capacities, and link costs in [1, 10).
func randomConnected(n int, extra int, rng *rand.Rand) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(Node{Cap: 1, Tier: TierEdge})
	}
	for i := 1; i < n; i++ {
		g.AddLink(NodeID(i), NodeID(rng.IntN(i)), 1, 1+rng.Float64()*9)
	}
	for k := 0; k < extra; k++ {
		a, b := NodeID(rng.IntN(n)), NodeID(rng.IntN(n))
		if a != b {
			g.AddLink(a, b, 1, 1+rng.Float64()*9)
		}
	}
	return g
}

// costTrees returns the cost-weighted shortest-path tree from every node
// of g, indexed by source.
func costTrees(g *Graph) []*ShortestPathTree {
	lw := costs(g)
	trees := make([]*ShortestPathTree, g.NumNodes())
	for src := range trees {
		trees[src] = g.DijkstraLinkWeightsInto(nil, NodeID(src), lw)
	}
	return trees
}

// Property: Dijkstra distances satisfy the triangle inequality
// d(a,c) ≤ d(a,b) + d(b,c) and symmetry on undirected graphs.
func TestDijkstraMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	g := randomConnected(24, 20, rng)
	trees := costTrees(g)
	dist := func(a, b NodeID) float64 { return trees[a].Dist[b] }
	f := func(aRaw, bRaw, cRaw uint8) bool {
		a := NodeID(int(aRaw) % g.NumNodes())
		b := NodeID(int(bRaw) % g.NumNodes())
		c := NodeID(int(cRaw) % g.NumNodes())
		dab, dbc, dac := dist(a, b), dist(b, c), dist(a, c)
		if math.Abs(dab-dist(b, a)) > 1e-9 {
			return false
		}
		return dac <= dab+dbc+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: every reconstructed shortest path's link costs sum to the
// reported distance, and consecutive links are adjacent.
func TestShortestPathInternalConsistency(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 34))
	for trial := 0; trial < 20; trial++ {
		g := randomConnected(16, 12, rng)
		trees := costTrees(g)
		for a := 0; a < g.NumNodes(); a++ {
			for b := 0; b < g.NumNodes(); b++ {
				p, ok := trees[a].PathTo(NodeID(b))
				if !ok {
					t.Fatalf("trial %d: no path %d→%d in connected graph", trial, a, b)
				}
				var sum float64
				cur := NodeID(a)
				for _, lid := range p.Links {
					l := g.Link(lid)
					if l.From != cur && l.To != cur {
						t.Fatalf("trial %d: path %d→%d link %d not incident to %d", trial, a, b, lid, cur)
					}
					cur = l.Other(cur)
					sum += l.Cost
				}
				if cur != NodeID(b) {
					t.Fatalf("trial %d: path %d→%d ends at %d", trial, a, b, cur)
				}
				if math.Abs(sum-trees[a].Dist[b]) > 1e-9 {
					t.Fatalf("trial %d: path cost %g ≠ dist %g", trial, sum, trees[a].Dist[b])
				}
			}
		}
	}
}
