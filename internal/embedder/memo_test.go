package embedder

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/substrate"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
)

// refOracle is the embedding DP as it stood before tables were memoized,
// kept verbatim as the differential-test reference: every query fills the
// whole table into the State's arena and reads one entry of its root row.
type refOracle struct {
	st *substrate.State
	g  *graph.Graph

	dpChildren [][]int
	dpCost     [][]float64
	dpChoice   [][]graph.NodeID
	poOrder    []int
}

func newRefOracle(st *substrate.State) *refOracle { return &refOracle{st: st, g: st.Graph()} }

// restriction limits which substrate nodes a given VNF may occupy; a nil
// restriction allows every node. It is how the reference applies bans.
type restriction func(vnet.VNFID, graph.NodeID) bool

// banned turns a ban list into the reference's restriction: nil for none.
func banned(bans []Ban) restriction {
	if len(bans) == 0 {
		return nil
	}
	return func(v vnet.VNFID, u graph.NodeID) bool { return !slices.Contains(bans, Ban{v, u}) }
}

// exclMap turns an exclusion list into the set a View takes: nil for none.
func exclMap(excl []graph.ElementID) map[graph.ElementID]bool {
	if len(excl) == 0 {
		return nil
	}
	m := make(map[graph.ElementID]bool, len(excl))
	for _, e := range excl {
		m[e] = true
	}
	return m
}

// minCostExcluded answers one query of a restricted search from scratch:
// the reference DP over the State, or over a View when anything is
// excluded.
func (o *refOracle) minCostExcluded(app *vnet.App, ingress graph.NodeID, allow restriction, exclude map[graph.ElementID]bool) (*vnet.Embedding, float64, bool) {
	if len(exclude) == 0 {
		return o.minCostReference(o.st, app, ingress, allow)
	}
	v := o.st.AcquireView(exclude)
	defer v.Close()
	return o.minCostReference(v, app, ingress, allow)
}

func (o *refOracle) minCostReference(pa pather, app *vnet.App, ingress graph.NodeID, allow restriction) (*vnet.Embedding, float64, bool) {
	n := o.g.NumNodes()
	numVNF := len(app.VNFs)

	arena := o.st.ScratchArena()
	arena.Reset()

	children := o.childrenOf(app) // child link indices per VNF

	// cost[i][u]: minimal price of the subtree rooted at VNF i when i
	// sits on node u. choice[li][u]: best child node for link li given
	// its parent on u.
	cost := resizeOuter(&o.dpCost, numVNF)
	choice := resizeOuter(&o.dpChoice, len(app.Links))

	// Process VNFs so that every child precedes its parent: links are
	// listed parent-to-child but branch interleaving means a reverse
	// index sweep is not sufficient, so compute an explicit post-order.
	order := o.postOrder(app, children)

	for _, i := range order {
		v := app.VNFs[i]
		ci := arena.Float64s(n)
		for u := 0; u < n; u++ {
			eta := vnet.Eff(v, o.g.Node(graph.NodeID(u)))
			if math.IsInf(eta, 1) || math.IsInf(pa.NodePrice(graph.NodeID(u)), 1) ||
				(allow != nil && v.ID != vnet.Root && !allow(v.ID, graph.NodeID(u))) {
				ci[u] = math.Inf(1)
				continue
			}
			ci[u] = v.Size * eta * pa.NodePrice(graph.NodeID(u))
		}
		for _, li := range children[i] {
			l := app.Links[li]
			childCost := cost[l.To]
			choice[li] = arena.NodeIDs(n)
			for u := 0; u < n; u++ {
				if math.IsInf(ci[u], 1) {
					continue
				}
				// One row fetch per source: the O(n) inner scan
				// indexes the cached distance row directly instead
				// of paying an interface call per destination.
				du := pa.DistRow(graph.NodeID(u))
				best := math.Inf(1)
				bestW := graph.NodeID(-1)
				for w := 0; w < n; w++ {
					if math.IsInf(childCost[w], 1) {
						continue
					}
					c := l.Size*du[w] + childCost[w]
					if c < best {
						best, bestW = c, graph.NodeID(w)
					}
				}
				ci[u] += best
				choice[li][u] = bestW
			}
		}
		cost[i] = ci
	}

	rootCost := cost[vnet.Root][ingress]
	if math.IsInf(rootCost, 1) {
		return nil, 0, false
	}

	// Reconstruct the mapping top-down. nodeMap and pathMap escape into
	// the Embedding, so they are real allocations, not arena chunks.
	nodeMap := make([]graph.NodeID, numVNF)
	nodeMap[vnet.Root] = ingress
	pathMap := make([]graph.Path, len(app.Links))
	var walk func(i int)
	walk = func(i int) {
		u := nodeMap[i]
		for _, li := range children[i] {
			l := app.Links[li]
			w := choice[li][u]
			nodeMap[l.To] = w
			p, _ := pa.PathBetween(u, w)
			pathMap[li] = p
			walk(int(l.To))
		}
	}
	walk(int(vnet.Root))

	e, err := vnet.NewEmbedding(o.g, app, nodeMap, pathMap)
	if err != nil {
		// Only possible if prices admit a node that η forbids —
		// prevented above, so treat as "no embedding".
		return nil, 0, false
	}
	return e, rootCost, true
}

// childrenOf fills the reusable per-VNF child-link index lists.
func (o *refOracle) childrenOf(app *vnet.App) [][]int {
	children := resizeOuter(&o.dpChildren, len(app.VNFs))
	for i := range children {
		children[i] = children[i][:0]
	}
	for li, l := range app.Links {
		children[l.From] = append(children[l.From], li)
	}
	return children
}

// postOrder returns VNF indices so that every child precedes its parent,
// reusing the oracle's order buffer.
func (o *refOracle) postOrder(app *vnet.App, children [][]int) []int {
	order := o.poOrder[:0]
	var visit func(i vnet.VNFID)
	visit = func(i vnet.VNFID) {
		for _, li := range children[i] {
			visit(app.Links[li].To)
		}
		order = append(order, int(i))
	}
	visit(vnet.Root)
	o.poOrder = order
	return order
}

// diffAnswer describes the first difference between the answer of the
// oracle under test and the reference's — ok, the price bit for bit, the
// node mapping, every virtual link's substrate path — or returns "".
func diffAnswer(ge *vnet.Embedding, gp float64, gok bool, we *vnet.Embedding, wp float64, wok bool) string {
	if gok != wok {
		return fmt.Sprintf("ok = %v, reference %v", gok, wok)
	}
	if !gok {
		return ""
	}
	if gp != wp {
		return fmt.Sprintf("price %v, reference %v (diff %g)", gp, wp, gp-wp)
	}
	if !slices.Equal(ge.NodeMap, we.NodeMap) {
		return fmt.Sprintf("NodeMap %v, reference %v", ge.NodeMap, we.NodeMap)
	}
	for i := range we.PathMap {
		if !slices.Equal(ge.PathMap[i].Links, we.PathMap[i].Links) {
			return fmt.Sprintf("virtual link %d routed over %v, reference %v", i, ge.PathMap[i].Links, we.PathMap[i].Links)
		}
	}
	return ""
}

// workOf sums the work counts of the given oracles.
func workOf(oracles ...*Oracle) CountersSnapshot {
	var w CountersSnapshot
	for _, o := range oracles {
		ow := o.Work()
		w.DPFills += ow.DPFills
		w.DPTableHits += ow.DPTableHits
		w.BanRescans += ow.BanRescans
		w.ExclRescans += ow.ExclRescans
		w.CollocOrders += ow.CollocOrders
	}
	return w
}

// TestMinCostMemoMatchesReference drives memoizing oracles and the
// unmemoized reference in lock-step over two equal States through random
// sequences of price changes and queries, and demands the same answer for
// every ingress after every step. The steps are the ways a memo goes
// stale or gets clobbered: a node-only price change (PriceGen moves,
// Epoch does not), link price changes, a SetPrices that changes nothing
// (which must not cost a refill), restricted and excluded queries between
// two hits (restricted searches through Solve: they reset the arena and
// must neither read nor write the memo), several apps alternating, and a
// second oracle on the same State.
func TestMinCostMemoMatchesReference(t *testing.T) {
	t.Parallel()
	type tc struct {
		name  topo.Name
		seeds int
		steps int
	}
	cases := []tc{{topo.Iris, 4, 30}, {topo.Random100, 1, 10}}
	if testing.Short() {
		cases = cases[:1]
	}
	var refills, hits, restricted int64
	for _, c := range cases {
		for seed := uint64(1); seed <= uint64(c.seeds); seed++ {
			rng := rand.New(rand.NewPCG(seed, 99))
			g := topo.MustBuild(c.name, seed)
			n := g.NumNodes()
			p := vnet.DefaultParams()
			apps := []*vnet.App{
				vnet.GenerateChain("chain", p, rng),
				vnet.GenerateTree("tree", p, rng),
				vnet.GenerateTree("tree2", p, rng),
				vnet.GenerateGPU("gpu", p, rng),
			}
			prices := CostPrices(g)
			stA, stB := substrate.NewWithPrices(g, prices), substrate.NewWithPrices(g, prices)
			oracles := []*Oracle{ForState(stA), ForState(stA)}
			ref := newRefOracle(stB)

			// checkAll asks every oracle for every ingress of app and
			// reports how many tables the round filled.
			checkAll := func(step int, app *vnet.App) int64 {
				before := workOf(oracles...)
				for oi, o := range oracles {
					for u := 0; u < n; u++ {
						ge, gp, gok := o.MinCostEmbed(app, graph.NodeID(u))
						we, wp, wok := ref.minCostReference(stB, app, graph.NodeID(u), nil)
						if d := diffAnswer(ge, gp, gok, we, wp, wok); d != "" {
							t.Fatalf("%s seed %d step %d oracle %d %s@%d: %s", c.name, seed, step, oi, app.Name, u, d)
						}
					}
				}
				after := workOf(oracles...)
				hits += after.DPTableHits - before.DPTableHits
				if got, want := after.DPTableHits-before.DPTableHits+after.DPFills-before.DPFills, int64(len(oracles)*n); got != want {
					t.Fatalf("%s seed %d step %d: %d hits+fills for %d queries", c.name, seed, step, got, want)
				}
				return after.DPFills - before.DPFills
			}
			for _, app := range apps {
				if fills := checkAll(-1, app); fills != int64(len(oracles)) {
					t.Fatalf("%s seed %d: first round over %s filled %d tables, want one per oracle", c.name, seed, app.Name, fills)
				}
			}

			// fresh[app]: every oracle has answered for app since the last
			// price change, so its table must be served from the memo.
			fresh := make(map[*vnet.App]bool)
			for _, app := range apps {
				fresh[app] = true
			}
			for step := 0; step < c.steps; step++ {
				moved := true
				switch op := rng.IntN(6); op {
				case 0: // node-only price change: PriceGen moves, Epoch does not
					e := g.NodeElement(graph.NodeID(rng.IntN(n)))
					np := prices[e] * (0.5 + rng.Float64())
					if rng.IntN(8) == 0 {
						np = math.Inf(1)
					}
					epoch := stA.Epoch()
					prices[e] = np
					stA.SetPrice(e, np)
					stB.SetPrice(e, np)
					if stA.Epoch() != epoch {
						t.Fatal("a node price change moved the Epoch")
					}
				case 1: // one link price
					e := g.LinkElement(graph.LinkID(rng.IntN(g.NumLinks())))
					prices[e] *= 0.5 + rng.Float64()
					stA.SetPrice(e, prices[e])
					stB.SetPrice(e, prices[e])
				case 2: // a whole new vector, as a pricing round installs
					for i := range prices {
						if rng.IntN(3) == 0 {
							prices[i] = g.ElementCost(graph.ElementID(i)) * (0.5 + 2*rng.Float64())
						}
					}
					stA.SetPrices(prices)
					stB.SetPrices(prices)
				case 3: // SetPrices that changes nothing
					stA.SetPrices(prices)
					stB.SetPrices(prices)
					moved = false
				default: // restricted / excluded queries between two hits
					moved = false
					app := apps[rng.IntN(len(apps))]
					bans := []Ban{{vnet.VNFID(1 + rng.IntN(len(app.VNFs)-1)), graph.NodeID(rng.IntN(n))}}
					var excl []graph.ElementID
					if op == 5 {
						excl = []graph.ElementID{
							g.LinkElement(graph.LinkID(rng.IntN(g.NumLinks()))),
							g.NodeElement(graph.NodeID(rng.IntN(n))),
						}
						if rng.IntN(2) == 0 {
							bans = nil
						}
					}
					before := workOf(oracles...)
					o := oracles[rng.IntN(len(oracles))]
					queries := 0
					for k := 0; k < 4; k++ {
						u := graph.NodeID(rng.IntN(n))
						var tab Table
						var ge *vnet.Embedding
						gok := o.Solve(&tab, app, u, bans, excl)
						if gok {
							ge, gok = o.Embedding(&tab)
						}
						gp := tab.Price()
						we, wp, wok := ref.minCostExcluded(app, u, banned(bans), exclMap(excl))
						if d := diffAnswer(ge, gp, gok, we, wp, wok); d != "" {
							t.Fatalf("%s seed %d step %d restricted %s@%d: %s", c.name, seed, step, app.Name, u, d)
						}
						queries++
					}
					after := workOf(oracles...)
					if after.DPTableHits != before.DPTableHits || after.DPFills-before.DPFills != int64(queries) {
						t.Fatalf("%s seed %d step %d: %d restricted queries made %d fills and %d memo hits",
							c.name, seed, step, queries, after.DPFills-before.DPFills, after.DPTableHits-before.DPTableHits)
					}
					restricted += int64(queries)
				}
				if moved {
					clear(fresh)
				}
				// Two apps alternating, then the first again: its table
				// must have survived the other's fill.
				a, b := apps[rng.IntN(len(apps))], apps[rng.IntN(len(apps))]
				for _, app := range []*vnet.App{a, b, a} {
					fills := checkAll(step, app)
					if want := int64(len(oracles)); !fresh[app] && fills != want {
						t.Fatalf("%s seed %d step %d: %d refills of %s after a price change, want one per oracle", c.name, seed, step, fills, app.Name)
					}
					if fresh[app] && fills != 0 {
						t.Fatalf("%s seed %d step %d: %d refills of %s although no price moved", c.name, seed, step, fills, app.Name)
					}
					fresh[app] = true
					refills += fills
				}
			}
		}
	}
	t.Logf("%d refills, %d memo hits, %d restricted/excluded queries compared", refills, hits, restricted)
	if refills == 0 || hits == 0 || restricted == 0 {
		t.Fatal("vacuous run")
	}
}

// TestMinCostEmbedRejectsOutOfRangeIngress: an ingress that is not a
// substrate node used to index past the root row after the whole DP had
// run; it is caller input and must come back as "no embedding".
func TestMinCostEmbedRejectsOutOfRangeIngress(t *testing.T) {
	g := starSubstrate()
	o := NewOracle(g, CostPrices(g))
	app := fixedChain()
	for _, ingress := range []graph.NodeID{graph.NodeID(g.NumNodes()), -1, 1 << 20} {
		if _, _, ok := o.MinCostEmbed(app, ingress); ok {
			t.Fatalf("MinCostEmbed accepted ingress %d", ingress)
		}
		var tab Table
		for _, q := range []struct {
			bans []Ban
			excl []graph.ElementID
		}{{nil, nil}, {[]Ban{{1, 0}}, nil}, {nil, []graph.ElementID{g.LinkElement(0)}}} {
			if o.Solve(&tab, app, ingress, q.bans, q.excl) {
				t.Fatalf("Solve(bans %v, excluded %v) accepted ingress %d", q.bans, q.excl, ingress)
			}
			if _, ok := o.Embedding(&tab); ok {
				t.Fatalf("Embedding of a failed Solve at ingress %d", ingress)
			}
		}
	}
	if _, _, ok := o.MinCostEmbed(app, 1); !ok {
		t.Fatal("a valid ingress stopped working")
	}
}

func TestCollocatedRejectsOutOfRangeIngress(t *testing.T) {
	g := starSubstrate()
	o := NewOracle(g, CostPrices(g))
	app := fixedChain()
	for _, ingress := range []graph.NodeID{graph.NodeID(g.NumNodes()), -1} {
		if _, _, ok := o.BestCollocated(app, ingress, nil, 1); ok {
			t.Fatalf("BestCollocated accepted ingress %d", ingress)
		}
		if es := o.KCheapestCollocated(app, ingress, 3); len(es) != 0 {
			t.Fatalf("KCheapestCollocated returned %d embeddings for ingress %d", len(es), ingress)
		}
	}
	if _, _, ok := o.BestCollocated(app, 1, nil, 1); !ok {
		t.Fatal("a valid ingress stopped working")
	}
}

// BenchmarkPricingRoundOracle is what one Dantzig–Wolfe pricing round asks
// of the oracle on 100n150e: install a price vector, then query every
// (app, ingress) class. fills/op is the number of DP tables that took —
// one per app; what remains per query is a root-row read, the top-down
// walk and the Embedding it returns.
func BenchmarkPricingRoundOracle(b *testing.B) {
	g := topo.MustBuild(topo.Random100, 1)
	rng := rand.New(rand.NewPCG(1, 2))
	apps := vnet.DefaultMix(vnet.DefaultParams(), rng)
	st := substrate.New(g)
	o := ForState(st)
	base := CostPrices(g)
	vecs := make([]Prices, 2)
	for k := range vecs {
		vecs[k] = slices.Clone(base)
		for i := range vecs[k] {
			vecs[k][i] *= 1 + rng.Float64()
		}
	}
	round := func(k int) {
		st.SetPrices(vecs[k%2])
		for _, app := range apps {
			for _, ingress := range g.EdgeNodes() {
				if _, _, ok := o.MinCostEmbed(app, ingress); !ok {
					b.Fatalf("%s@%d: no embedding", app.Name, ingress)
				}
			}
		}
	}
	round(0)
	round(1)
	before := o.Work()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(i)
	}
	b.StopTimer()
	after := o.Work()
	b.ReportMetric(float64(after.DPFills-before.DPFills)/float64(b.N), "fills/op")
	b.ReportMetric(float64(after.DPTableHits-before.DPTableHits)/float64(b.N), "hits/op")
}
