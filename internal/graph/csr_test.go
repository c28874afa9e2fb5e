package graph

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// refGraph builds a Graph alongside the append-built adjacency the CSR
// must reproduce: AddLink appends the new link to both endpoints' lists,
// so each list is in link-ID order and a self-loop appears twice in a row.
type refGraph struct {
	*Graph
	inc [][]LinkID
}

func (r *refGraph) addNode() NodeID {
	r.inc = append(r.inc, nil)
	return r.AddNode(Node{Cap: 1, Cost: 1})
}

func (r *refGraph) addLink(a, b NodeID) LinkID {
	id := r.AddLink(a, b, 1, 1)
	r.inc[a] = append(r.inc[a], id)
	r.inc[b] = append(r.inc[b], id)
	return id
}

func (r *refGraph) clone() *refGraph {
	c := &refGraph{Graph: r.Clone(), inc: make([][]LinkID, len(r.inc))}
	for u, l := range r.inc {
		c.inc[u] = slices.Clone(l)
	}
	return c
}

// checkCSR fails t unless every node's Incident sequence and Degree match
// the reference lists and the CSR's opposite endpoints match the links'.
func checkCSR(t *testing.T, what string, r *refGraph) {
	t.Helper()
	if r.NumNodes() != len(r.inc) {
		t.Fatalf("%s: %d nodes, reference has %d", what, r.NumNodes(), len(r.inc))
	}
	for u, want := range r.inc {
		inc := r.Incident(NodeID(u))
		if !slices.Equal(inc, want) || r.Degree(NodeID(u)) != len(want) {
			t.Fatalf("%s: node %d incident %v (degree %d), want %v in AddLink order",
				what, u, inc, r.Degree(NodeID(u)), want)
		}
		adj := r.adjacency()
		for k, lid := range inc {
			if got, want := adj.other[int(adj.off[u])+k], r.Link(lid).Other(NodeID(u)); got != want {
				t.Fatalf("%s: CSR other endpoint of link %d at node %d: got %d want %d", what, lid, u, got, want)
			}
		}
	}
}

// TestCSRMatchesReferenceAdjacency property-tests the packed CSR layout
// against the append-built reference on random graphs with self-loops:
// identical per-node incident sequences (Dijkstra's tie-breaking depends
// on their order), correct opposite endpoints, a rebuild after AddLink,
// and shortest-path costs equal to a brute-force Bellman–Ford's.
func TestCSRMatchesReferenceAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		r := &refGraph{Graph: New()}
		for i := 0; i < n; i++ {
			r.addNode()
		}
		for m := rng.Intn(4 * n); m > 0; m-- {
			r.addLink(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		checkCSR(t, "random", r)

		// Mutation after a CSR build must invalidate it.
		r.addLink(0, 1)
		checkCSR(t, "after AddLink", r)

		// Shortest-path costs vs Bellman–Ford over the raw link list.
		g := r.Graph
		lw := make([]float64, g.NumLinks())
		for i := range lw {
			lw[i] = 0.1 + rng.Float64()
		}
		src := NodeID(rng.Intn(n))
		tree := g.DijkstraLinkWeightsInto(nil, src, lw)
		dist := make([]float64, n)
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		dist[src] = 0
		for it := 0; it < n; it++ {
			for lid := 0; lid < g.NumLinks(); lid++ {
				l := g.Link(LinkID(lid))
				if d := dist[l.From] + lw[lid]; d < dist[l.To] {
					dist[l.To] = d
				}
				if d := dist[l.To] + lw[lid]; d < dist[l.From] {
					dist[l.From] = d
				}
			}
		}
		for i := range dist {
			if math.Abs(tree.Dist[i]-dist[i]) > 1e-12 && !(math.IsInf(tree.Dist[i], 1) && math.IsInf(dist[i], 1)) {
				t.Fatalf("trial %d: dist %d→%d CSR-Dijkstra %v != Bellman-Ford %v", trial, src, i, tree.Dist[i], dist[i])
			}
		}
	}
}

// TestCSROrderEdgeCases pins the CSR against the reference where the
// packing could drift from AddLink order: self-loops between ordinary
// links, links added one at a time with Incident read in between (as
// topology construction does to skip duplicates), and a Clone grown on
// each side independently.
func TestCSROrderEdgeCases(t *testing.T) {
	r := &refGraph{Graph: New()}
	for i := 0; i < 4; i++ {
		r.addNode()
	}
	r.addLink(0, 1)
	r.addLink(2, 2)
	r.addLink(1, 2)
	r.addLink(2, 2)
	r.addLink(2, 3)
	checkCSR(t, "self-loops", r)
	if r.Degree(2) != 6 {
		t.Fatalf("degree of a node with two self-loops and two links = %d, want 6", r.Degree(2))
	}

	rng := rand.New(rand.NewSource(5))
	inter := &refGraph{Graph: New()}
	for i := 0; i < 12; i++ {
		inter.addNode()
	}
	for k := 0; k < 60; k++ {
		a, b := NodeID(rng.Intn(12)), NodeID(rng.Intn(12))
		inter.Incident(a)
		inter.Incident(b)
		inter.addLink(a, b)
		checkCSR(t, "interleaved", inter)
	}

	c := inter.clone()
	checkCSR(t, "clone", c)
	c.addLink(3, 7)
	checkCSR(t, "clone after its AddLink", c)
	checkCSR(t, "original after the clone's AddLink", inter)
	inter.addLink(7, 7)
	checkCSR(t, "original after its AddLink", inter)
	checkCSR(t, "clone after the original's AddLink", c)
}

// TestConcurrentAdjacencyBuild has goroutines race to pack one fresh
// graph's CSR — the serving layer's shards share one graph — and checks
// under -race that every tree they compute is bit-identical to one from
// an independently packed copy.
func TestConcurrentAdjacencyBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := New()
	for i := 0; i < 40; i++ {
		g.AddNode(Node{Cap: 1, Cost: 1})
	}
	for i := 1; i < 40; i++ {
		g.AddLink(NodeID(i), NodeID(rng.Intn(i)), 1, float64(1+rng.Intn(4)))
	}
	for k := 0; k < 80; k++ {
		g.AddLink(NodeID(rng.Intn(40)), NodeID(rng.Intn(40)), 1, float64(1+rng.Intn(4)))
	}
	lw := costs(g)
	ref := g.Clone()

	const workers = 4
	trees := make([][]*ShortestPathTree, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for src := range g.NumNodes() {
				g.Incident(NodeID(src))
				trees[w] = append(trees[w], g.DijkstraLinkWeightsInto(nil, NodeID(src), lw))
			}
		}()
	}
	wg.Wait()
	for src := range g.NumNodes() {
		want := ref.DijkstraLinkWeightsInto(nil, NodeID(src), lw)
		for w := range workers {
			got := trees[w][src]
			for dst := range want.Dist {
				if math.Float64bits(got.Dist[dst]) != math.Float64bits(want.Dist[dst]) || got.prevLink[dst] != want.prevLink[dst] {
					t.Fatalf("worker %d tree %d→%d: dist %v via %d, want %v via %d",
						w, src, dst, got.Dist[dst], got.prevLink[dst], want.Dist[dst], want.prevLink[dst])
				}
			}
		}
	}
}
