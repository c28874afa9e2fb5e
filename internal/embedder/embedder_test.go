package embedder

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
)

// starSubstrate: hub node 0 (cheap), leaves 1..4 with varying costs.
func starSubstrate() *graph.Graph {
	g := graph.New()
	g.AddNode(graph.Node{Name: "hub", Tier: graph.TierCore, Cap: 10000, Cost: 1})
	for i := 1; i <= 4; i++ {
		g.AddNode(graph.Node{Name: string(rune('a' + i)), Tier: graph.TierEdge, Cap: 10000, Cost: float64(i * 10)})
	}
	for i := 1; i <= 4; i++ {
		g.AddLink(0, graph.NodeID(i), 10000, 1)
	}
	return g
}

func fixedChain() *vnet.App {
	return &vnet.App{
		Name: "chain", Kind: vnet.KindChain,
		VNFs:  []vnet.VNF{{ID: 0}, {ID: 1, Size: 10}, {ID: 2, Size: 10}},
		Links: []vnet.VLink{{From: 0, To: 1, Size: 2}, {From: 1, To: 2, Size: 2}},
	}
}

func TestMinCostEmbedPrefersCheapNode(t *testing.T) {
	g := starSubstrate()
	o := NewOracle(g, CostPrices(g))
	app := fixedChain()
	// Ingress at leaf 4 (cost 40). Hub costs 1/CU: optimal placement
	// puts both VNFs on the hub: cost = 20·1 (nodes) + 2·1 (link θ→hub)
	// + 0 (v1,v2 collocated on hub) = 22.
	e, price, ok := o.MinCostEmbed(app, 4)
	if !ok {
		t.Fatal("no embedding found")
	}
	if e.NodeMap[1] != 0 || e.NodeMap[2] != 0 {
		t.Fatalf("VNFs placed on %v, want hub (0)", e.NodeMap[1:])
	}
	if math.Abs(price-22) > 1e-9 {
		t.Fatalf("price = %g, want 22", price)
	}
	if math.Abs(e.UnitCost()-price) > 1e-9 {
		t.Fatalf("embedding unit cost %g disagrees with DP price %g", e.UnitCost(), price)
	}
}

func TestMinCostEmbedRespectsExpensiveTransit(t *testing.T) {
	// Line A(cost 100) - B(cost 1): expensive link forces staying at A.
	g := graph.New()
	g.AddNode(graph.Node{Name: "A", Cap: 1000, Cost: 100})
	g.AddNode(graph.Node{Name: "B", Cap: 1000, Cost: 1})
	g.AddLink(0, 1, 1000, 1e6)
	o := NewOracle(g, CostPrices(g))
	app := fixedChain()
	e, _, ok := o.MinCostEmbed(app, 0)
	if !ok {
		t.Fatal("no embedding")
	}
	if e.NodeMap[1] != 0 || e.NodeMap[2] != 0 {
		t.Fatalf("placement %v crossed a prohibitively expensive link", e.NodeMap)
	}
}

func TestMinCostEmbedTreeApp(t *testing.T) {
	g := starSubstrate()
	o := NewOracle(g, CostPrices(g))
	tree := &vnet.App{
		Name: "tree", Kind: vnet.KindTree,
		VNFs: []vnet.VNF{{ID: 0}, {ID: 1, Size: 5}, {ID: 2, Size: 5}, {ID: 3, Size: 5}},
		Links: []vnet.VLink{
			{From: 0, To: 1, Size: 1},
			{From: 1, To: 2, Size: 1},
			{From: 1, To: 3, Size: 1},
		},
	}
	e, price, ok := o.MinCostEmbed(tree, 1)
	if !ok {
		t.Fatal("no embedding")
	}
	// All three VNFs belong on the hub (cost 1) reached by one link.
	for i := 1; i <= 3; i++ {
		if e.NodeMap[i] != 0 {
			t.Fatalf("VNF %d on node %d, want hub", i, e.NodeMap[i])
		}
	}
	// price = 15·1 (nodes) + 1·1 (θ→v1 path) + 0 + 0.
	if math.Abs(price-16) > 1e-9 {
		t.Fatalf("price = %g, want 16", price)
	}
}

func TestMinCostEmbedGPUConstraint(t *testing.T) {
	g := starSubstrate()
	g.SetNodeGPU(2, true)
	o := NewOracle(g, CostPrices(g))
	app := fixedChain()
	app.VNFs[1].GPU = true
	e, _, ok := o.MinCostEmbed(app, 4)
	if !ok {
		t.Fatal("no embedding despite GPU node available")
	}
	if e.NodeMap[1] != 2 {
		t.Fatalf("GPU VNF on node %d, want GPU node 2", e.NodeMap[1])
	}
	if e.NodeMap[2] == 2 {
		t.Fatal("non-GPU VNF placed on dedicated GPU node")
	}
}

func TestMinCostEmbedNoFeasiblePlacement(t *testing.T) {
	g := starSubstrate() // no GPU nodes
	o := NewOracle(g, CostPrices(g))
	app := fixedChain()
	app.VNFs[1].GPU = true
	if _, _, ok := o.MinCostEmbed(app, 0); ok {
		t.Fatal("embedding found for GPU VNF with no GPU nodes")
	}
}

func TestMinCostEmbedExcluding(t *testing.T) {
	g := starSubstrate()
	o := NewOracle(g, CostPrices(g))
	app := fixedChain()
	// Exclude the hub: the DP must fall back to placing on the ingress
	// leaf itself (cheapest remaining option from leaf 1, cost 10/CU).
	var tab Table
	if !o.Solve(&tab, app, 1, nil, []graph.ElementID{g.NodeElement(0)}) {
		t.Fatal("no embedding with hub excluded")
	}
	e, ok := o.Embedding(&tab)
	if !ok {
		t.Fatal("no embedding materialized with hub excluded")
	}
	if e.NodeMap[1] == 0 || e.NodeMap[2] == 0 {
		t.Fatalf("placement %v used excluded hub", e.NodeMap)
	}
}

// TestMinCostEmbedMatchesBruteForce cross-checks the DP against exhaustive
// enumeration on small instances.
func TestMinCostEmbedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for trial := 0; trial < 25; trial++ {
		// Random connected substrate of 5 nodes.
		g := graph.New()
		for i := 0; i < 5; i++ {
			g.AddNode(graph.Node{Cap: 1e6, Cost: 1 + rng.Float64()*20})
		}
		for i := 1; i < 5; i++ {
			g.AddLink(graph.NodeID(i), graph.NodeID(rng.IntN(i)), 1e6, 1+rng.Float64()*5)
		}
		g.AddLink(0, 4, 1e6, 1+rng.Float64()*5)

		app := &vnet.App{
			Name: "brute", Kind: vnet.KindChain,
			VNFs: []vnet.VNF{{ID: 0}, {ID: 1, Size: 1 + rng.Float64()*10}, {ID: 2, Size: 1 + rng.Float64()*10}},
			Links: []vnet.VLink{
				{From: 0, To: 1, Size: 1 + rng.Float64()*5},
				{From: 1, To: 2, Size: 1 + rng.Float64()*5},
			},
		}
		ingress := graph.NodeID(rng.IntN(5))
		o := NewOracle(g, CostPrices(g))
		_, got, ok := o.MinCostEmbed(app, ingress)
		if !ok {
			t.Fatalf("trial %d: DP found no embedding", trial)
		}
		// Brute force over all (u1, u2) placements with shortest paths.
		lw := make([]float64, g.NumLinks())
		for i, l := range g.Links() {
			lw[i] = l.Cost
		}
		dist := func(a, b graph.NodeID) float64 { return g.DijkstraLinkWeightsInto(nil, a, lw).Dist[b] }
		best := math.Inf(1)
		for u1 := 0; u1 < 5; u1++ {
			for u2 := 0; u2 < 5; u2++ {
				c := app.VNFs[1].Size*g.Node(graph.NodeID(u1)).Cost +
					app.VNFs[2].Size*g.Node(graph.NodeID(u2)).Cost +
					app.Links[0].Size*dist(ingress, graph.NodeID(u1)) +
					app.Links[1].Size*dist(graph.NodeID(u1), graph.NodeID(u2))
				if c < best {
					best = c
				}
			}
		}
		if math.Abs(got-best) > 1e-6 {
			t.Fatalf("trial %d: DP price %g, brute force %g", trial, got, best)
		}
	}
}

func TestAdjustedPricesAddCongestion(t *testing.T) {
	g := starSubstrate()
	dual := make([]float64, g.NumElements())
	dual[g.NodeElement(0)] = -5 // congested hub
	pr := AdjustedPricesInto(nil, g, dual)
	if pr[g.NodeElement(0)] != g.Node(0).Cost+5 {
		t.Fatalf("adjusted hub price = %g, want %g", pr[g.NodeElement(0)], g.Node(0).Cost+5)
	}
	if pr[g.NodeElement(1)] != g.Node(1).Cost {
		t.Fatal("unrelated element price changed")
	}
}

func TestCollocatedOnNode(t *testing.T) {
	g := starSubstrate()
	o := NewOracle(g, CostPrices(g))
	app := fixedChain()
	e, price, ok := o.collocated(app, 1, 2)
	if !ok {
		t.Fatal("no collocated embedding")
	}
	if !e.Collocated() {
		t.Fatal("embedding not collocated")
	}
	// nodes: 20 CU × cost 20 = 400; θ-link over 2 hops (1→0→2): 2·2=4.
	if math.Abs(price-404) > 1e-9 {
		t.Fatalf("price = %g, want 404", price)
	}
	if math.Abs(e.UnitCost()-price) > 1e-9 {
		t.Fatalf("UnitCost %g ≠ returned price %g", e.UnitCost(), price)
	}
}

func TestCollocatedOnNodeSameAsIngress(t *testing.T) {
	g := starSubstrate()
	o := NewOracle(g, CostPrices(g))
	app := fixedChain()
	e, price, ok := o.collocated(app, 3, 3)
	if !ok {
		t.Fatal("no self-collocated embedding")
	}
	if math.Abs(price-20*30) > 1e-9 {
		t.Fatalf("price = %g, want 600 (no link usage)", price)
	}
	for _, u := range e.UnitUse() {
		if _, isLink := g.ElementLink(u.Elem); isLink {
			t.Fatal("self-collocated embedding consumes link capacity")
		}
	}
}

func TestCollocatedRejectsGPUMix(t *testing.T) {
	g := starSubstrate()
	g.SetNodeGPU(2, true)
	o := NewOracle(g, CostPrices(g))
	app := fixedChain() // both VNFs CPU
	if _, _, ok := o.collocated(app, 1, 2); ok {
		t.Fatal("CPU VNFs collocated on GPU node")
	}
	// A GPU chain cannot be collocated anywhere if it mixes GPU and CPU
	// VNFs.
	app.VNFs[1].GPU = true
	if _, _, ok := o.BestCollocated(app, 1, nil, 1); ok {
		t.Fatal("mixed GPU/CPU chain collocated")
	}
}

func TestBestCollocatedRespectsResidual(t *testing.T) {
	g := starSubstrate()
	o := NewOracle(g, CostPrices(g))
	app := fixedChain() // 20 CU node footprint per unit demand
	res := g.Capacities()

	// Demand 10 ⇒ 200 CU on the chosen node. Cheapest is hub.
	e, _, ok := o.BestCollocated(app, 1, res, 10)
	if !ok {
		t.Fatal("no feasible collocated embedding")
	}
	if e.NodeMap[1] != 0 {
		t.Fatalf("placed on %d, want hub", e.NodeMap[1])
	}
	// Saturate the hub: next cheapest feasible node must be chosen.
	res[g.NodeElement(0)] = 10
	e2, _, ok := o.BestCollocated(app, 1, res, 10)
	if !ok {
		t.Fatal("no fallback candidate")
	}
	if e2.NodeMap[1] == 0 {
		t.Fatal("chose saturated hub")
	}
	// Saturate everything: no candidate fits.
	for i := range res {
		res[i] = 0.5
	}
	if _, _, ok := o.BestCollocated(app, 1, res, 10); ok {
		t.Fatal("found embedding in saturated substrate")
	}
}

func TestBestCollocatedNilResidualIgnoresCapacity(t *testing.T) {
	g := starSubstrate()
	for _, n := range g.Nodes() {
		g.SetNodeCap(n.ID, 0.001)
	}
	o := NewOracle(g, CostPrices(g))
	if _, _, ok := o.BestCollocated(fixedChain(), 1, nil, 1e9); !ok {
		t.Fatal("nil residual should skip feasibility")
	}
}

// TestBestCollocatedRejectsBadInputs: a residual vector shorter than the
// substrate's element vector, and a NaN or negative demand, are "no
// embedding" — not an index panic, and not a fit everywhere.
func TestBestCollocatedRejectsBadInputs(t *testing.T) {
	g := topo.MustBuild(topo.Iris, 1)
	o := NewOracle(g, CostPrices(g))
	app := vnet.Generate(vnet.KindChain, "c", vnet.DefaultParams(), rand.New(rand.NewPCG(9, 9)))
	ingress := g.EdgeNodes()[0]
	res := make([]float64, g.NumElements())
	for i := range res {
		res[i] = 1e6
	}
	for _, c := range []struct {
		name string
		res  []float64
		d    float64
		ok   bool
	}{
		{"nil res", nil, 1, true},
		{"full res", res, 1, true},
		{"zero demand", res, 0, true},
		{"one-entry res", []float64{1}, 1, false},
		{"res one short", res[:len(res)-1], 1, false},
		{"empty res", []float64{}, 1, false},
		{"NaN demand", res, math.NaN(), false},
		{"NaN demand, nil res", nil, math.NaN(), false},
		{"negative demand", res, -5, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, _, ok := o.BestCollocated(app, ingress, c.res, c.d)
			if ok != c.ok || (e != nil) != c.ok {
				t.Fatalf("ok = %v (embedding %v), want %v", ok, e != nil, c.ok)
			}
		})
	}
}

func TestKCheapestCollocatedOrdering(t *testing.T) {
	g := starSubstrate()
	o := NewOracle(g, CostPrices(g))
	app := fixedChain()
	es := o.KCheapestCollocated(app, 1, 3)
	if len(es) != 3 {
		t.Fatalf("got %d candidates, want 3", len(es))
	}
	for i := 1; i < len(es); i++ {
		if es[i-1].UnitCost() > es[i].UnitCost()+1e-9 {
			t.Fatalf("candidates not sorted: %g then %g", es[i-1].UnitCost(), es[i].UnitCost())
		}
	}
	// More than available: capped at node count.
	all := o.KCheapestCollocated(app, 1, 99)
	if len(all) != g.NumNodes() {
		t.Fatalf("got %d candidates, want %d", len(all), g.NumNodes())
	}
	// Asking for none (or fewer) yields nothing, not a slice-bounds panic.
	for _, k := range []int{0, -1} {
		if es := o.KCheapestCollocated(app, 1, k); es != nil {
			t.Fatalf("k = %d: got %d candidates, want nil", k, len(es))
		}
	}
}

func TestOracleOnRealTopology(t *testing.T) {
	g := topo.MustBuild(topo.CittaStudi, 1)
	o := NewOracle(g, CostPrices(g))
	rng := rand.New(rand.NewPCG(1, 2))
	apps := vnet.DefaultMix(vnet.DefaultParams(), rng)
	for _, app := range apps {
		for _, ingress := range g.EdgeNodes()[:5] {
			e, price, ok := o.MinCostEmbed(app, ingress)
			if !ok {
				t.Fatalf("%s@%d: no embedding", app.Name, ingress)
			}
			if math.Abs(e.UnitCost()-price) > 1e-6 {
				t.Fatalf("%s@%d: cost mismatch %g vs %g", app.Name, ingress, e.UnitCost(), price)
			}
			// DP must never be beaten by any collocated candidate.
			if ce, cprice, ok := o.BestCollocated(app, ingress, nil, 1); ok {
				if cprice < price-1e-6 {
					t.Fatalf("%s@%d: collocated %g beats DP %g (%v)", app.Name, ingress, cprice, price, ce.NodeMap)
				}
			}
		}
	}
}
