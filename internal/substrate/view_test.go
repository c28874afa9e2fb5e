package substrate

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/olive-vne/olive/internal/graph"
)

// TestViewKeepsTreesOnlyWhenKeyAndEpochMatch drives the view pool through
// random acquire / close sequences over a small family of exclusion maps
// (with node elements and false-valued entries in them), interleaved with
// link and node price changes (some while a view is held) and with
// callers rewriting a map they used before. It checks every distance,
// path and node price of every view against a view freshly built over a
// pristine State with the same prices, and every view tree bit for bit
// against a fresh graph.DijkstraLinkWeightsInto over a hand-built vector:
// the prices, with the links the map excludes at +Inf. Alongside, the tree-build counter must say that trees were kept exactly
// when the excluded links and the link-price epoch were what they were
// built under: never a rebuild then, always one otherwise.
func TestViewKeepsTreesOnlyWhenKeyAndEpochMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randSubstrateGraph(rng, 30)
	n, numLinks := g.NumNodes(), g.NumLinks()
	prices := make([]float64, g.NumElements())
	for i := range prices {
		prices[i] = g.ElementCost(graph.ElementID(i))
	}
	s := NewWithPrices(g, prices)

	randExcl := func() map[graph.ElementID]bool {
		excl := make(map[graph.ElementID]bool)
		for k := rng.Intn(4); k > 0; k-- {
			excl[g.LinkElement(graph.LinkID(rng.Intn(numLinks)))] = rng.Intn(4) != 0
		}
		for k := rng.Intn(3); k > 0; k-- {
			excl[g.NodeElement(graph.NodeID(rng.Intn(n)))] = rng.Intn(4) != 0
		}
		return excl
	}
	family := make([]map[graph.ElementID]bool, 5)
	for i := range family {
		family[i] = randExcl()
	}
	family[0] = nil
	linkKey := func(excl map[graph.ElementID]bool) []graph.ElementID {
		var key []graph.ElementID
		for e, on := range excl {
			if on && !g.ElementIsNode(e) {
				key = append(key, e)
			}
		}
		slices.Sort(key)
		return key
	}

	// built[v] is what v's trees were last built under, as far as the
	// test can tell from the outside: the key and epoch of the last
	// acquisition that queried every source.
	type builtUnder struct {
		key   []graph.ElementID
		epoch uint64
	}
	built := make(map[*View]builtUnder)
	kept, rebuilt, heldMoves := 0, 0, 0

	check := func(step int, v *View, excl map[graph.ElementID]bool) {
		fresh := NewWithPrices(g, prices).AcquireView(maps.Clone(excl))
		lw := slices.Clone(prices[n:])
		for e, on := range excl {
			if on && !g.ElementIsNode(e) {
				lw[int(e)-n] = math.Inf(1)
			}
		}
		before := s.ViewTreeBuilds()
		for src := 0; src < n; src++ {
			got, want := v.Tree(graph.NodeID(src)), g.DijkstraLinkWeightsInto(nil, graph.NodeID(src), lw)
			for dst := 0; dst < n; dst++ {
				if math.Float64bits(got.Dist[dst]) != math.Float64bits(want.Dist[dst]) {
					t.Fatalf("step %d: tree %d→%d dist %v, hand-built vector %v", step, src, dst, got.Dist[dst], want.Dist[dst])
				}
				gp, gok := got.PathTo(graph.NodeID(dst))
				wp, wok := want.PathTo(graph.NodeID(dst))
				if gok != wok || !slices.Equal(gp.Links, wp.Links) || !slices.Equal(gp.Nodes, wp.Nodes) ||
					math.Float64bits(gp.Cost) != math.Float64bits(wp.Cost) {
					t.Fatalf("step %d: tree path %d→%d = %v/%v, hand-built vector %v/%v", step, src, dst, gp.Links, gok, wp.Links, wok)
				}
			}
			if got, want := v.NodePrice(graph.NodeID(src)), fresh.NodePrice(graph.NodeID(src)); got != want {
				t.Fatalf("step %d: NodePrice(%d) = %g, fresh view %g", step, src, got, want)
			}
			if !slices.Equal(v.DistRow(graph.NodeID(src)), fresh.DistRow(graph.NodeID(src))) {
				t.Fatalf("step %d: distance row %d differs from a fresh view's (exclusions %v)", step, src, excl)
			}
			for dst := 0; dst < n; dst++ {
				gp, gok := v.PathBetween(graph.NodeID(src), graph.NodeID(dst))
				wp, wok := fresh.PathBetween(graph.NodeID(src), graph.NodeID(dst))
				if gok != wok || !slices.Equal(gp.Links, wp.Links) || gp.Cost != wp.Cost {
					t.Fatalf("step %d: path %d→%d = %v/%v, fresh view %v/%v", step, src, dst, gp.Links, gok, wp.Links, wok)
				}
			}
		}
		builds := s.ViewTreeBuilds() - before
		key := linkKey(excl)
		was, seen := built[v]
		switch same := seen && was.epoch == s.Epoch() && slices.Equal(was.key, key); {
		case same && builds != 0:
			t.Fatalf("step %d: %d trees rebuilt under an unchanged link set %v and epoch", step, builds, key)
		case !same && builds != uint64(n):
			t.Fatalf("step %d: %d of %d trees rebuilt after the link set or epoch changed (%v@%d → %v@%d)",
				step, builds, n, was.key, was.epoch, key, s.Epoch())
		case same:
			kept++
		default:
			rebuilt++
		}
		built[v] = builtUnder{key, s.Epoch()}
	}

	for step := 0; step < 400; step++ {
		switch rng.Intn(10) {
		case 0: // a link price moves: every kept tree is stale
			e := g.LinkElement(graph.LinkID(rng.Intn(numLinks)))
			prices[e] = 0.5 + rng.Float64()
			s.SetPrice(e, prices[e])
		case 1: // a node price moves: trees stand, NodePrice must follow
			e := g.NodeElement(graph.NodeID(rng.Intn(n)))
			prices[e] = 0.5 + rng.Float64()
			s.SetPrice(e, prices[e])
		case 2: // a caller rewrites a map it used before
			if i := 1 + rng.Intn(len(family)-1); rng.Intn(2) == 0 {
				family[i] = randExcl()
			} else {
				clear(family[i])
				maps.Copy(family[i], randExcl())
			}
		}
		excl := family[rng.Intn(len(family))]
		v := s.AcquireView(excl)
		if rng.Intn(6) == 0 {
			// Two views open at once: the second comes from deeper in
			// the pool (or is new) and must be just as right.
			excl2 := family[rng.Intn(len(family))]
			v2 := s.AcquireView(excl2)
			check(step, v2, excl2)
			check(step, v, excl)
			v2.Close()
		} else {
			check(step, v, excl)
		}
		if rng.Intn(8) == 0 {
			// A link price moves while v is held: its trees and its
			// weight vector must follow on the next query.
			e := g.LinkElement(graph.LinkID(rng.Intn(numLinks)))
			prices[e] += 0.25
			s.SetPrice(e, prices[e])
			check(step, v, excl)
			heldMoves++
		}
		v.Close()
	}
	t.Logf("%d acquisitions kept their trees, %d rebuilt them, %d epoch moves under a held view", kept, rebuilt, heldMoves)
	if kept < 20 || rebuilt < 20 || heldMoves < 10 {
		t.Fatal("vacuous run")
	}
}

// TestViewDistRowMatchesDijkstra checks View.DistRow, row for row and
// bit for bit, against graph.DijkstraLinkWeightsInto over a hand-built
// weight vector: the State's link prices with the view's excluded links
// at +Inf. Prices are small integers, so distances tie often and a
// State's tree is one of several of equal length. Each exclusion set
// draws links from the State's trees as well as from anywhere, so that
// the run holds both rows the exclusion moves and rows it leaves as the
// State's.
func TestViewDistRowMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randSubstrateGraph(rng, 25)
	n := g.NumNodes()
	prices := make([]float64, g.NumElements())
	for i := range prices {
		prices[i] = float64(1 + rng.Intn(3))
	}
	s := NewWithPrices(g, prices)
	var moved, same int
	for round := 0; round < 200; round++ {
		excl := make(map[graph.ElementID]bool)
		for k := 1 + rng.Intn(3); k > 0; k-- {
			lid := graph.LinkID(-1)
			if rng.Intn(2) == 0 {
				// A tree link: the parent link of some node in some
				// State tree (-1 at the source: drawn again below).
				lid = s.Tree(graph.NodeID(rng.Intn(n))).ParentLink(graph.NodeID(rng.Intn(n)))
			}
			if lid < 0 {
				lid = graph.LinkID(rng.Intn(g.NumLinks()))
			}
			excl[g.LinkElement(lid)] = true
		}
		if rng.Intn(4) == 0 {
			excl[g.NodeElement(graph.NodeID(rng.Intn(n)))] = true
		}
		lw := slices.Clone(prices[n:])
		for e := range excl {
			if lid, ok := g.ElementLink(e); ok {
				lw[lid] = math.Inf(1)
			}
		}
		v := s.AcquireView(excl)
		for src := 0; src < n; src++ {
			got := v.DistRow(graph.NodeID(src))
			want := g.DijkstraLinkWeightsInto(nil, graph.NodeID(src), lw).Dist
			for dst := range want {
				if math.Float64bits(got[dst]) != math.Float64bits(want[dst]) {
					t.Fatalf("round %d: DistRow(%d)[%d] = %v, Dijkstra over the hand-built vector %v (excluded %v)",
						round, src, dst, got[dst], want[dst], excl)
				}
			}
			if slices.Equal(got, s.DistRow(graph.NodeID(src))) {
				same++
			} else {
				moved++
			}
		}
		v.Close()
	}
	t.Logf("%d rows moved by the exclusion, %d left as the State's", moved, same)
	if moved == 0 || same == 0 {
		t.Fatal("vacuous run: the exclusions moved every row or none")
	}
}
