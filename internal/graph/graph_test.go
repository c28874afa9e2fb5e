package graph

import (
	"math"
	"testing"
)

// line builds a path graph n0-n1-...-n(k-1) with unit caps and the given
// link costs.
func line(t *testing.T, costs ...float64) *Graph {
	t.Helper()
	g := New()
	for i := 0; i <= len(costs); i++ {
		g.AddNode(Node{Name: string(rune('A' + i)), Tier: TierEdge, Cap: 100, Cost: 1})
	}
	for i, c := range costs {
		g.AddLink(NodeID(i), NodeID(i+1), 100, c)
	}
	return g
}

func TestAddNodeAssignsSequentialIDs(t *testing.T) {
	g := New()
	for i := 0; i < 5; i++ {
		id := g.AddNode(Node{Name: "n", Cap: 1})
		if int(id) != i {
			t.Fatalf("AddNode returned ID %d, want %d", id, i)
		}
	}
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", g.NumNodes())
	}
}

func TestAddLinkPanicsOnBadEndpoint(t *testing.T) {
	g := New()
	g.AddNode(Node{Cap: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("AddLink with out-of-range endpoint did not panic")
		}
	}()
	g.AddLink(0, 7, 1, 1)
}

func TestElementSpaceRoundTrip(t *testing.T) {
	g := line(t, 1, 2, 3)
	if got, want := g.NumElements(), g.NumNodes()+g.NumLinks(); got != want {
		t.Fatalf("NumElements = %d, want %d", got, want)
	}
	for i := 0; i < g.NumNodes(); i++ {
		e := g.NodeElement(NodeID(i))
		n, ok := g.ElementNode(e)
		if !ok || n != NodeID(i) {
			t.Fatalf("node %d: round-trip via element %d gave (%d,%v)", i, e, n, ok)
		}
		if _, ok := g.ElementLink(e); ok {
			t.Fatalf("node element %d wrongly resolves as link", e)
		}
	}
	for i := 0; i < g.NumLinks(); i++ {
		e := g.LinkElement(LinkID(i))
		l, ok := g.ElementLink(e)
		if !ok || l != LinkID(i) {
			t.Fatalf("link %d: round-trip via element %d gave (%d,%v)", i, e, l, ok)
		}
	}
}

func TestCapacitiesVector(t *testing.T) {
	g := line(t, 1, 1)
	g.SetNodeCap(1, 42)
	g.SetLinkCap(0, 7)
	caps := g.Capacities()
	if caps[g.NodeElement(1)] != 42 {
		t.Errorf("node 1 capacity in vector = %g, want 42", caps[g.NodeElement(1)])
	}
	if caps[g.LinkElement(0)] != 7 {
		t.Errorf("link 0 capacity in vector = %g, want 7", caps[g.LinkElement(0)])
	}
}

func TestConnected(t *testing.T) {
	g := line(t, 1, 1, 1)
	if !g.Connected() {
		t.Error("line graph reported disconnected")
	}
	g.AddNode(Node{Name: "isolated", Cap: 1})
	if g.Connected() {
		t.Error("graph with isolated node reported connected")
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Graph)
		wantErr bool
	}{
		{name: "valid", mutate: func(*Graph) {}, wantErr: false},
		{name: "zero node cap", mutate: func(g *Graph) { g.SetNodeCap(0, 0) }, wantErr: true},
		{name: "negative node cost", mutate: func(g *Graph) { g.SetNodeCost(0, -1) }, wantErr: true},
		{name: "zero link cap", mutate: func(g *Graph) { g.SetLinkCap(0, 0) }, wantErr: true},
		{name: "disconnected", mutate: func(g *Graph) { g.AddNode(Node{Cap: 1}) }, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := line(t, 1, 1)
			tt.mutate(g)
			err := g.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestNodesByTier(t *testing.T) {
	g := New()
	g.AddNode(Node{Tier: TierEdge, Cap: 1})
	g.AddNode(Node{Tier: TierCore, Cap: 1})
	g.AddNode(Node{Tier: TierEdge, Cap: 1})
	g.AddLink(0, 1, 1, 1)
	g.AddLink(1, 2, 1, 1)
	edges := g.EdgeNodes()
	if len(edges) != 2 || edges[0] != 0 || edges[1] != 2 {
		t.Fatalf("EdgeNodes = %v, want [0 2]", edges)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := line(t, 1, 1)
	c := g.Clone()
	c.SetNodeCap(0, 999)
	c.SetNodeGPU(1, true)
	if g.Node(0).Cap == 999 {
		t.Error("mutating clone capacity changed original")
	}
	if g.Node(1).GPU {
		t.Error("mutating clone GPU flag changed original")
	}
}

func TestDijkstraLine(t *testing.T) {
	g := line(t, 1, 2, 3)
	tr := g.DijkstraLinkWeightsInto(nil, 0, costs(g))
	want := []float64{0, 1, 3, 6}
	for i, w := range want {
		if tr.Dist[i] != w {
			t.Errorf("Dist[%d] = %g, want %g", i, tr.Dist[i], w)
		}
	}
	p, ok := tr.PathTo(3)
	if !ok || p.Len() != 3 || p.Cost != 6 {
		t.Fatalf("PathTo(3) = %+v, %v; want 3-link path of cost 6", p, ok)
	}
	if p.Src() != 0 || p.Dst() != 3 {
		t.Errorf("path endpoints (%d,%d), want (0,3)", p.Src(), p.Dst())
	}
}

func TestDijkstraPrefersCheaperDetour(t *testing.T) {
	// Triangle: 0-1 cost 10, 0-2 cost 1, 2-1 cost 1. Shortest 0->1 is via 2.
	g := New()
	for i := 0; i < 3; i++ {
		g.AddNode(Node{Cap: 1})
	}
	g.AddLink(0, 1, 1, 10)
	g.AddLink(0, 2, 1, 1)
	g.AddLink(2, 1, 1, 1)
	p, ok := g.DijkstraLinkWeightsInto(nil, 0, costs(g)).PathTo(1)
	if !ok {
		t.Fatal("no path found")
	}
	if p.Cost != 2 || p.Len() != 2 {
		t.Fatalf("path cost %g len %d, want cost 2 len 2", p.Cost, p.Len())
	}
}

func TestShortestPathSameNode(t *testing.T) {
	g := line(t, 1)
	p, ok := g.DijkstraLinkWeightsInto(nil, 0, costs(g)).PathTo(0)
	if !ok || p.Len() != 0 || p.Src() != 0 || p.Dst() != 0 {
		t.Fatalf("self path = %+v, %v; want empty path", p, ok)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := line(t, 1)
	g.AddNode(Node{Cap: 1}) // isolated node 2
	if _, ok := g.DijkstraLinkWeightsInto(nil, 0, costs(g)).PathTo(2); ok {
		t.Fatal("found path to isolated node")
	}
}

func TestInfWeightForbidsLinks(t *testing.T) {
	g := line(t, 1, 1)
	lw := costs(g)
	lw[0] = math.Inf(1)
	if _, ok := g.DijkstraLinkWeightsInto(nil, 0, lw).PathTo(2); ok {
		t.Fatal("path found through forbidden link")
	}
}

func TestTierString(t *testing.T) {
	for tier, want := range map[Tier]string{TierEdge: "edge", TierTransport: "transport", TierCore: "core", Tier(9): "tier(9)"} {
		if got := tier.String(); got != want {
			t.Errorf("Tier(%d).String() = %q, want %q", tier, got, want)
		}
	}
}

func TestLinkOther(t *testing.T) {
	l := Link{From: 3, To: 8}
	if l.Other(3) != 8 || l.Other(8) != 3 {
		t.Fatalf("Other: got (%d,%d), want (8,3)", l.Other(3), l.Other(8))
	}
}

// costs returns g's per-link cost vector, the weights the tests route
// under unless they say otherwise.
func costs(g *Graph) []float64 {
	lw := make([]float64, g.NumLinks())
	for i, l := range g.Links() {
		lw[i] = l.Cost
	}
	return lw
}
