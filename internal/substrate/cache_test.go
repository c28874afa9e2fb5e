package substrate

import (
	"math/rand"
	"testing"

	"github.com/olive-vne/olive/internal/graph"
)

func randSubstrateGraph(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{Cap: 10, Cost: 0.5 + rng.Float64()})
	}
	for i := 1; i < n; i++ {
		g.AddLink(graph.NodeID(rng.Intn(i)), graph.NodeID(i), 10, 0.5+rng.Float64())
	}
	for i := 0; i < 2*n; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			g.AddLink(graph.NodeID(a), graph.NodeID(b), 10, 0.5+rng.Float64())
		}
	}
	return g
}

// tiedNodes counts the nodes of tr reached by more than one link that
// achieves their distance exactly: nodes whose parent link is decided by
// the kernel's fixed tie-break rather than by the weights.
func tiedNodes(g *graph.Graph, tr *graph.ShortestPathTree, lw []float64) int {
	achievers := make([]int, g.NumNodes())
	for lid, l := range g.Links() {
		if tr.Dist[l.From]+lw[lid] == tr.Dist[l.To] {
			achievers[l.To]++
		}
		if tr.Dist[l.To]+lw[lid] == tr.Dist[l.From] {
			achievers[l.From]++
		}
	}
	n := 0
	for _, a := range achievers {
		if a > 1 {
			n++
		}
	}
	return n
}

// TestTreeCacheMatchesFreshState drives a State's shortest-path cache
// through many link-price rounds — single SetPrice pokes and bulk
// SetPrices rounds, the access pattern of plan pricing — and checks after
// every round that each cached tree is bit-identical to the tree a fresh
// State computes under the same prices: same Dist values, same paths.
// The later rounds draw integer-valued prices, so shortest paths tie
// exactly and parent links rest on the kernel's tie-break.
func TestTreeCacheMatchesFreshState(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randSubstrateGraph(rng, 60)
	st := New(g)
	linkBase := g.NumNodes()
	nEl := g.NumElements()

	pr := make([]float64, nEl)
	copy(pr, st.prices)

	ties := 0
	checkAll := func(round int) {
		ref := NewWithPrices(g, pr)
		for src := 0; src < g.NumNodes(); src++ {
			ct := st.Tree(graph.NodeID(src))
			rt := ref.Tree(graph.NodeID(src))
			ties += tiedNodes(g, rt, pr[linkBase:])
			for dst := 0; dst < g.NumNodes(); dst++ {
				if ct.Dist[dst] != rt.Dist[dst] {
					t.Fatalf("round %d: Dist[%d→%d] cached %v != fresh %v",
						round, src, dst, ct.Dist[dst], rt.Dist[dst])
				}
				cp, cok := st.PathBetween(graph.NodeID(src), graph.NodeID(dst))
				rp, rok := ref.PathBetween(graph.NodeID(src), graph.NodeID(dst))
				if cok != rok || len(cp.Links) != len(rp.Links) {
					t.Fatalf("round %d: path %d→%d shape differs", round, src, dst)
				}
				for k := range cp.Links {
					if cp.Links[k] != rp.Links[k] {
						t.Fatalf("round %d: path %d→%d link %d: cached %d != fresh %d",
							round, src, dst, k, cp.Links[k], rp.Links[k])
					}
				}
			}
		}
	}

	integer := false
	draw := func() float64 {
		if integer {
			return float64(1 + rng.Intn(3))
		}
		return 0.5 + rng.Float64()
	}

	// Warm the whole cache, then perturb.
	checkAll(-1)
	for round := 0; round < 70; round++ {
		switch {
		case round == 40:
			// Switch every link to an integer price in one SetPrices.
			integer = true
			for e := linkBase; e < nEl; e++ {
				pr[e] = draw()
			}
			st.SetPrices(pr)
		case round%5 == 4:
			// Bulk round: SetPrices with several links (and a node) moved.
			for i := 0; i < 4; i++ {
				pr[linkBase+rng.Intn(nEl-linkBase)] = draw()
			}
			pr[rng.Intn(linkBase)] = draw()
			st.SetPrices(pr)
		default:
			// Poke rounds: individual SetPrice calls.
			for i := 0; i < 1+rng.Intn(3); i++ {
				e := linkBase + rng.Intn(nEl-linkBase)
				pr[e] = draw()
				st.SetPrice(graph.ElementID(e), pr[e])
			}
		}
		if round == 40 {
			ties = 0
		}
		checkAll(round)
	}
	if ties == 0 {
		t.Fatal("integer-priced rounds produced no exact shortest-path tie — the tie-break is never exercised")
	}
}
