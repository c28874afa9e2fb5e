package embedder

import (
	"math/rand/v2"
	"testing"

	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/substrate"
	"github.com/olive-vne/olive/internal/vnet"
)

// fuzzSubstrate is FuzzRestrictedSearch's substrate: a ring of eight
// nodes with two chords, a leaf hanging off node 0 by its only link (the
// link FULLG most often excludes) and two GPU nodes. Every price is a
// small integer, so shortest paths tie and the State's trees are one
// choice among several of equal length.
func fuzzSubstrate() *graph.Graph {
	g := graph.New()
	for i := range 11 {
		g.AddNode(graph.Node{Cap: 100, Cost: float64(1 + i%3), GPU: i >= 9})
	}
	for i := range 8 {
		g.AddLink(graph.NodeID(i), graph.NodeID((i+1)%8), 100, float64(1+i%2))
	}
	g.AddLink(0, 4, 100, 3)
	g.AddLink(2, 6, 100, 2)
	g.AddLink(0, 8, 100, 1)
	g.AddLink(3, 9, 100, 1)
	g.AddLink(9, 10, 100, 1)
	g.AddLink(6, 10, 100, 2)
	return g
}

// FuzzRestrictedSearch decodes its input into a restricted search — an
// app, an ingress, then up to 24 steps, each deriving a child from a
// table of the search by SolveBan (at a node the parent's embedding
// uses, or at any node), by SolveExclude (a link on the parent's paths,
// any link, or a node), or starting the search over with Solve — and
// checks every table against a from-scratch fill of the same inputs on a
// fresh oracle (diffFill): its entries, its price and the embedding it
// materializes.
func FuzzRestrictedSearch(f *testing.F) {
	g := fuzzSubstrate()
	prices := CostPrices(g)
	rng := rand.New(rand.NewPCG(1, 2))
	p := vnet.DefaultParams()
	apps := []*vnet.App{
		vnet.GenerateChain("chain", p, rng),
		vnet.GenerateTree("tree", p, rng),
		vnet.GenerateAccelerator("accel", p, rng),
		vnet.GenerateGPU("gpu", p, rng),
	}
	f.Add([]byte{0, 1, 2, 0, 0, 0, 2, 1, 0, 5, 0})
	f.Add([]byte{1, 3, 2, 0, 2, 1, 0, 0, 2, 2, 3, 0, 4, 1, 2})
	f.Add([]byte{2, 8, 3, 0, 0, 0, 1, 2, 0, 3, 1, 0, 7, 2, 6})
	f.Add([]byte{3, 0, 2, 0, 2, 1, 0, 1, 4, 2, 9, 5, 3, 0, 2, 1})
	f.Add([]byte{1, 5, 4, 0, 3, 2, 1, 0, 2, 2, 0, 1, 1, 6, 2, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		o := ForState(substrate.NewWithPrices(g, prices))
		app := apps[next()%len(apps)]
		ingress := graph.NodeID(next() % g.NumNodes())
		root := new(Table)
		if !o.Solve(root, app, ingress, nil, nil) {
			return
		}
		pool := []*Table{root}
		for step := 0; step < 24 && len(data) > 0; step++ {
			op, parent := next()%6, pool[next()%len(pool)]
			child := new(Table)
			var ok bool
			switch op {
			case 0, 1: // ban a VNF where the parent placed it, or anywhere
				v := vnet.VNFID(1 + next()%(len(app.VNFs)-1))
				b := Ban{v, graph.NodeID(next() % g.NumNodes())}
				if op == 0 {
					e, _ := o.Embedding(parent)
					b.U = e.NodeMap[v]
				}
				ok = o.SolveBan(child, parent, b)
			case 2, 3: // exclude a link on the parent's paths, or any link
				e := g.LinkElement(graph.LinkID(next() % g.NumLinks()))
				if op == 2 {
					pe, _ := o.Embedding(parent)
					var used []graph.LinkID
					for _, pa := range pe.PathMap {
						used = append(used, pa.Links...)
					}
					if len(used) > 0 {
						e = g.LinkElement(used[next()%len(used)])
					}
				}
				ok = o.SolveExclude(child, parent, e)
			case 4: // exclude a node
				ok = o.SolveExclude(child, parent, g.NodeElement(graph.NodeID(next()%g.NumNodes())))
			default: // start over, with the parent's bans and exclusions
				ok = o.Solve(child, app, ingress, parent.bans, parent.excl)
				pool = pool[:0]
			}
			if d := diffFill(o, g, prices, child); d != "" {
				t.Fatalf("step %d (op %d, bans %v, excluded %v): %s", step, op, child.bans, child.excl, d)
			}
			if ok {
				pool = append(pool, child)
			} else if len(pool) == 0 {
				return
			}
		}
	})
}
