package substrate

import (
	"math"
	"sync"
	"testing"

	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/vnet"
)

// diamond builds a 4-node diamond: 0-1-3 (cheap) and 0-2-3 (expensive),
// plus the direct chord 1-2.
func diamond() *graph.Graph {
	g := graph.New()
	for i := 0; i < 4; i++ {
		g.AddNode(graph.Node{Name: string(rune('a' + i)), Tier: graph.TierEdge, Cap: 100, Cost: float64(i + 1)})
	}
	g.AddLink(0, 1, 50, 1) // link 0
	g.AddLink(1, 3, 50, 1) // link 1
	g.AddLink(0, 2, 50, 5) // link 2
	g.AddLink(2, 3, 50, 5) // link 3
	g.AddLink(1, 2, 50, 1) // link 4
	return g
}

func TestStatePricesMirrorCosts(t *testing.T) {
	g := diamond()
	s := New(g)
	for e := 0; e < g.NumElements(); e++ {
		if got, want := s.Price(graph.ElementID(e)), g.ElementCost(graph.ElementID(e)); got != want {
			t.Fatalf("Price(%d) = %g, want element cost %g", e, got, want)
		}
	}
	for u := 0; u < g.NumNodes(); u++ {
		if s.NodePrice(graph.NodeID(u)) != s.Price(g.NodeElement(graph.NodeID(u))) {
			t.Fatalf("NodePrice(%d) disagrees with Price", u)
		}
	}
}

func TestLazyTreeMatchesEagerDijkstra(t *testing.T) {
	g := diamond()
	s := New(g)
	lw := make([]float64, g.NumLinks())
	for i, l := range g.Links() {
		lw[i] = l.Cost
	}
	for src := 0; src < g.NumNodes(); src++ {
		want := g.DijkstraLinkWeightsInto(nil, graph.NodeID(src), lw)
		for dst := 0; dst < g.NumNodes(); dst++ {
			if got := s.Dist(graph.NodeID(src), graph.NodeID(dst)); got != want.Dist[dst] {
				t.Fatalf("Dist(%d,%d) = %g, want %g", src, dst, got, want.Dist[dst])
			}
		}
	}
	// Cached: the same tree pointer comes back while prices stand still.
	if s.Tree(0) != s.Tree(0) {
		t.Fatal("repeated Tree(0) rebuilt the tree without a price change")
	}
}

func TestLinkPriceChangeInvalidatesPathCache(t *testing.T) {
	g := diamond()
	s := New(g)
	if d := s.Dist(0, 3); d != 2 { // 0-1-3 at cost 1+1
		t.Fatalf("initial Dist(0,3) = %g, want 2", d)
	}
	ep := s.Epoch()

	// Raising a link price must invalidate and reroute.
	s.SetPrice(g.LinkElement(0), 100) // 0-1 now expensive
	if s.Epoch() == ep {
		t.Fatal("link price change did not bump the epoch")
	}
	if d := s.Dist(0, 3); d != 7 { // 0-2-1-3 at cost 5+1+1
		t.Fatalf("Dist(0,3) after reweight = %g, want 7", d)
	}

	// Node price changes must NOT invalidate the path cache.
	ep = s.Epoch()
	gen := s.PriceGen()
	tr := s.Tree(0)
	s.SetPrice(g.NodeElement(2), 42)
	if s.Epoch() != ep {
		t.Fatal("node price change bumped the path epoch")
	}
	if s.PriceGen() == gen {
		t.Fatal("node price change did not bump the price generation")
	}
	if s.Tree(0) != tr {
		t.Fatal("node price change invalidated a cached tree")
	}
	if s.NodePrice(2) != 42 {
		t.Fatalf("NodePrice(2) = %g, want 42", s.NodePrice(2))
	}
}

func TestSetPricesEpochSemantics(t *testing.T) {
	g := diamond()
	s := New(g)
	pr := make([]float64, g.NumElements())
	for i := range pr {
		pr[i] = s.Price(graph.ElementID(i))
	}

	ep, gen := s.Epoch(), s.PriceGen()
	s.SetPrices(pr) // identical vector: nothing should move
	if s.Epoch() != ep || s.PriceGen() != gen {
		t.Fatal("identical SetPrices bumped epoch or generation")
	}

	pr[0] = 99 // node-only change
	s.SetPrices(pr)
	if s.Epoch() != ep {
		t.Fatal("node-only SetPrices bumped the path epoch")
	}
	if s.PriceGen() == gen {
		t.Fatal("node-only SetPrices did not bump the price generation")
	}

	pr[g.NumNodes()] = 99 // link change
	s.SetPrices(pr)
	if s.Epoch() != ep+1 {
		t.Fatalf("link SetPrices moved the path epoch by %d, want 1", s.Epoch()-ep)
	}

	ep = s.Epoch()
	pr[len(pr)-1], pr[len(pr)-2] = 42, 43 // two links, neither the first
	s.SetPrices(pr)
	if s.Epoch() != ep+1 {
		t.Fatalf("two-link SetPrices moved the path epoch by %d, want 1", s.Epoch()-ep)
	}
}

func TestExclusionViews(t *testing.T) {
	g := diamond()
	s := New(g)
	if d := s.Dist(0, 3); d != 2 {
		t.Fatalf("base Dist(0,3) = %g, want 2", d)
	}

	v := s.AcquireView(map[graph.ElementID]bool{
		g.LinkElement(1):               true, // ban link 1-3
		g.NodeElement(graph.NodeID(2)): true, // exclude node 2's placement
	})
	// Path must detour: 0-1-2-3 = 1+1+5 (node exclusion does not block
	// transit, matching the engine's price semantics).
	if d := v.Dist(0, 3); d != 7 {
		t.Fatalf("view Dist(0,3) = %g, want 7", d)
	}
	if !math.IsInf(v.NodePrice(2), 1) {
		t.Fatal("excluded node's view price is not +Inf")
	}
	if v.NodePrice(1) != s.NodePrice(1) {
		t.Fatal("non-excluded node's view price differs from the state")
	}
	p, ok := v.PathBetween(0, 3)
	if !ok || len(p.Links) != 3 || p.Links[0] != 0 || p.Links[1] != 4 || p.Links[2] != 3 {
		t.Fatalf("view path = %+v, want links [0 4 3]", p)
	}
	v.Close()

	// The base state is untouched.
	if d := s.Dist(0, 3); d != 2 {
		t.Fatalf("base Dist(0,3) after view = %g, want 2", d)
	}

	// Views are pooled: a second acquisition reuses the first's buffers
	// and must not see its exclusions.
	v2 := s.AcquireView(nil)
	if v2 != v {
		t.Fatal("view pool did not recycle the released view")
	}
	if d := v2.Dist(0, 3); d != 2 {
		t.Fatalf("recycled view Dist(0,3) = %g, want 2 (stale exclusions?)", d)
	}
	v2.Close()
}

func TestResidualLifecycle(t *testing.T) {
	g := diamond()
	s := New(g)
	app := &vnet.App{
		Name: "pair", Kind: vnet.KindChain,
		VNFs:  []vnet.VNF{{ID: 0}, {ID: 1, Size: 2}},
		Links: []vnet.VLink{{From: 0, To: 1, Size: 1}},
	}
	nodeMap := []graph.NodeID{0, 1}
	pathMap := []graph.Path{{Nodes: []graph.NodeID{0, 1}, Links: []graph.LinkID{0}, Cost: 1}}
	emb, err := vnet.NewEmbedding(g, app, nodeMap, pathMap)
	if err != nil {
		t.Fatal(err)
	}

	if !s.Fits(emb, 10) {
		t.Fatal("embedding should fit a fresh state")
	}
	s.Apply(emb, 10)
	if got := s.ResidualVec()[g.NodeElement(1)]; got != 100-20 {
		t.Fatalf("node 1 residual = %g, want 80", got)
	}
	if got := s.ResidualVec()[g.LinkElement(0)]; got != 50-10 {
		t.Fatalf("link 0 residual = %g, want 40", got)
	}

	s.Release(emb, 10)
	s.Apply(emb, 25)
	s.ResetResidual()
	for e := 0; e < g.NumElements(); e++ {
		if s.ResidualVec()[e] != g.ElementCap(graph.ElementID(e)) {
			t.Fatalf("element %d residual not reset to capacity", e)
		}
	}
}

// TestParallelStatesShareGraph exercises the parallel-runner usage
// pattern under -race: many goroutines, each with a private State (and
// views, and arenas) over one shared read-only graph. Any hidden shared
// mutable state in the substrate layer would trip the race detector.
func TestParallelStatesShareGraph(t *testing.T) {
	g := diamond()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			s := New(g)
			for iter := 0; iter < 50; iter++ {
				for src := 0; src < g.NumNodes(); src++ {
					for dst := 0; dst < g.NumNodes(); dst++ {
						_ = s.Dist(graph.NodeID(src), graph.NodeID(dst))
					}
				}
				v := s.AcquireView(map[graph.ElementID]bool{g.LinkElement(graph.LinkID(iter % g.NumLinks())): true})
				_ = v.Dist(0, 3)
				v.Close()
				s.SetPrice(g.LinkElement(0), float64(1+iter%3))
				a := s.ScratchArena()
				a.Reset()
				f := a.Float64s(64)
				f[seed%64] = float64(iter)
			}
		}(w)
	}
	wg.Wait()
}
