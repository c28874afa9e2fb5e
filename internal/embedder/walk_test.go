package embedder

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/substrate"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
)

// bestCollocatedReference is BestCollocated as it stood before its
// candidate order was memoized, kept as the differential-test reference:
// every call scores every node, insertion-sorts the candidates in
// o.cands and walks them through the collocated memo.
func (o *Oracle) bestCollocatedReference(app *vnet.App, ingress graph.NodeID, res []float64, d float64) (*vnet.Embedding, float64, bool) {
	if !o.validNode(ingress) || (res != nil && len(res) < o.g.NumElements()) || !(d >= 0) {
		return nil, 0, false
	}
	cands := o.cands[:0]
	nodeSize := app.TotalNodeSize()
	var rootLinkSize float64
	for _, l := range app.Links {
		if l.From == vnet.Root {
			rootLinkSize += l.Size
		}
	}
	for u := 0; u < o.g.NumNodes(); u++ {
		if math.IsInf(o.st.NodePrice(graph.NodeID(u)), 1) {
			continue
		}
		dist := o.st.Dist(ingress, graph.NodeID(u))
		if math.IsInf(dist, 1) {
			continue
		}
		cands = append(cands, scoredNode{graph.NodeID(u), nodeSize*o.st.NodePrice(graph.NodeID(u)) + rootLinkSize*dist})
	}
	sortCands(cands)
	o.cands = cands
	for _, c := range cands {
		e, price, ok := o.collocated(app, ingress, c.u)
		if !ok {
			continue
		}
		if res != nil && !e.FitsResidual(res, d) {
			continue
		}
		return e, price, true
	}
	return nil, 0, false
}

// TestBestCollocatedMatchesReference asks BestCollocated and the per-call
// sort reference the same questions on one oracle — every app × ingress
// of Iris and 100n150e, under random residual vectors (and nil), random
// demands, KCheapestCollocated calls in between (they share o.cands) and a
// price change between rounds — and demands the same embedding pointer,
// the same price bits and the same ok. Each round must build exactly one
// candidate order per (app, ingress): the queries after the first walk
// the memo.
func TestBestCollocatedMatchesReference(t *testing.T) {
	t.Parallel()
	for _, name := range []topo.Name{topo.Iris, topo.Random100} {
		g := topo.MustBuild(name, 1)
		rng := rand.New(rand.NewPCG(7, 11))
		apps := vnet.DefaultMix(vnet.DefaultParams(), rng)
		st := substrate.New(g)
		o := ForState(st)
		n, caps := g.NumNodes(), g.Capacities()
		res := make([]float64, len(caps))
		found, missed := 0, 0
		for round := 0; round < 4; round++ {
			if round > 0 {
				gen := st.PriceGen()
				// One node price (sometimes excluded) and one link price.
				el := g.NodeElement(graph.NodeID(rng.IntN(n)))
				np := st.Price(el) * (0.5 + rng.Float64())
				if round == 2 {
					np = math.Inf(1)
				}
				st.SetPrice(el, np)
				ln := g.LinkElement(graph.LinkID(rng.IntN(g.NumLinks())))
				st.SetPrice(ln, st.Price(ln)*(0.5+2*rng.Float64()))
				if st.PriceGen() == gen {
					t.Fatalf("%s round %d: the price change did not move PriceGen", name, round)
				}
			}
			orders := o.Work().CollocOrders
			for _, app := range apps {
				for v := graph.NodeID(0); int(v) < n; v++ {
					for q := 0; q < 3; q++ {
						r := res
						if rng.IntN(4) == 0 {
							r = nil
						} else {
							// Scaled down by up to 10⁴, so that walks stop
							// at every depth, and some find nothing.
							scale := math.Pow(10, -4*rng.Float64())
							for i, c := range caps {
								r[i] = c * scale * rng.Float64()
							}
						}
						d := 40 * rng.Float64()
						if rng.IntN(5) == 0 {
							o.KCheapestCollocated(apps[rng.IntN(len(apps))], graph.NodeID(rng.IntN(n)), 1+rng.IntN(4))
						}
						var ge, we *vnet.Embedding
						var gp, wp float64
						var gok, wok bool
						if rng.IntN(2) == 0 {
							ge, gp, gok = o.BestCollocated(app, v, r, d)
							we, wp, wok = o.bestCollocatedReference(app, v, r, d)
						} else {
							we, wp, wok = o.bestCollocatedReference(app, v, r, d)
							ge, gp, gok = o.BestCollocated(app, v, r, d)
						}
						if ge != we || math.Float64bits(gp) != math.Float64bits(wp) || gok != wok {
							t.Fatalf("%s round %d %s@%d query %d: got (%p, %v, %v), reference (%p, %v, %v)",
								name, round, app.Name, v, q, ge, gp, gok, we, wp, wok)
						}
						if gok {
							found++
						} else {
							missed++
						}
					}
				}
			}
			if built, want := o.Work().CollocOrders-orders, int64(len(apps)*n); built != want {
				t.Fatalf("%s round %d: %d candidate orders built, want one per (app, ingress) = %d", name, round, built, want)
			}
		}
		t.Logf("%s: %d queries found an embedding, %d found none", name, found, missed)
		if found == 0 || missed == 0 {
			t.Fatalf("%s: vacuous run", name)
		}
	}
}
