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

// diffTables describes the first entry where got differs from want — two
// tables of one app and ingress — or returns "". Every row but θ's is
// compared whole: cost bit for bit and, where the cost is finite, each
// child link's choice and best term (an entry at +Inf carries neither).
// θ's row is compared at the ingress only, the one entry a search reads.
func diffTables(got, want *Table) string {
	app, sh := want.app, want.shape
	for i := range app.VNFs {
		lo, hi := 0, len(want.cost[i])
		if vnet.VNFID(i) == vnet.Root {
			lo, hi = int(want.ingress), int(want.ingress)+1
		}
		for x := lo; x < hi; x++ {
			g, w := got.cost[i][x], want.cost[i][x]
			if math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Sprintf("cost[%d][%d] = %v, fill %v", i, x, g, w)
			}
			if math.IsInf(w, 1) {
				continue
			}
			for _, li := range sh.children[i] {
				if got.choice[li][x] != want.choice[li][x] {
					return fmt.Sprintf("choice[%d][%d] = %d, fill %d", li, x, got.choice[li][x], want.choice[li][x])
				}
				if math.Float64bits(got.best[li][x]) != math.Float64bits(want.best[li][x]) {
					return fmt.Sprintf("best[%d][%d] = %v, fill %v", li, x, got.best[li][x], want.best[li][x])
				}
			}
		}
	}
	return ""
}

// revertEntry returns a copy of child's table in which entry x of VNF
// i's row has the value, and on every child link the choice and best
// term, it had in parent: what a derivation would produce if it skipped
// that entry's rescans.
func revertEntry(child, parent *Table, i vnet.VNFID, x int) *Table {
	m := *child
	m.cost = slices.Clone(child.cost)
	m.choice = slices.Clone(child.choice)
	m.best = slices.Clone(child.best)
	m.cost[i] = slices.Clone(child.cost[i])
	m.cost[i][x] = parent.cost[i][x]
	for _, li := range child.shape.children[i] {
		m.choice[li] = slices.Clone(child.choice[li])
		m.best[li] = slices.Clone(child.best[li])
		m.choice[li][x], m.best[li][x] = parent.choice[li][x], parent.best[li][x]
	}
	return &m
}

// freshFill solves tab's inputs from scratch on a fresh oracle over g
// under prices.
func freshFill(g *graph.Graph, prices Prices, tab *Table) (*Table, *Oracle) {
	ref := NewOracle(g, prices)
	want := new(Table)
	ref.Solve(want, tab.app, tab.ingress, tab.bans, tab.excl)
	return want, ref
}

// diffFill describes how tab, a table o derived, differs from a
// from-scratch fill of its inputs (freshFill), or returns "": in its
// price, bit for bit, an entry (diffTables), or the embedding it
// materializes.
func diffFill(o *Oracle, g *graph.Graph, prices Prices, tab *Table) string {
	want, ref := freshFill(g, prices, tab)
	if math.Float64bits(tab.Price()) != math.Float64bits(want.Price()) {
		return fmt.Sprintf("price %v, fill %v", tab.Price(), want.Price())
	}
	if math.IsInf(want.Price(), 1) {
		return ""
	}
	if d := diffTables(tab, want); d != "" {
		return d
	}
	ge, gok := o.Embedding(tab)
	we, wok := ref.Embedding(want)
	return diffAnswer(ge, tab.Price(), gok, we, want.Price(), wok)
}

// firstMoved returns the first entry, lowest VNF first, that is finite in
// parent and holds another value in child (at θ, only the ingress), or
// ok false. The banned entry of seed, unless seed bans θ, is passed over:
// it is set, not rescanned.
func firstMoved(child, parent *Table, seed Ban) (vnet.VNFID, int, bool) {
	for i := range child.cost {
		lo, hi := 0, len(child.cost[i])
		if vnet.VNFID(i) == vnet.Root {
			lo, hi = int(child.ingress), int(child.ingress)+1
		}
		for x := lo; x < hi; x++ {
			if seed.V != vnet.Root && seed.V == vnet.VNFID(i) && seed.U == graph.NodeID(x) {
				continue
			}
			if !math.IsInf(parent.cost[i][x], 1) && child.cost[i][x] != parent.cost[i][x] {
				return vnet.VNFID(i), x, true
			}
		}
	}
	return 0, 0, false
}

// TestSolveBanMatchesFill drives restricted searches through random
// sequences of bans and exclusions — chain, tree, accelerator and GPU
// apps on the GPU variant of Città Studi, under cost prices and under
// perturbed ones — and demands of every derived table that it equal a
// from-scratch fill under the same bans and exclusions on a fresh oracle
// (diffFill): entry for entry, and in the embedding it materializes (the
// root price bit for bit, the NodeMap, every path). Bans land mostly where
// the relaxation placed a VNF, as FULLG's branching does, sometimes on any
// finite entry — often one no parent entry chose, so the walk changes a
// row and rescans nothing above it — and sometimes on an
// entry that is already +Inf (a GPU mismatch or a repeated ban), which
// must change nothing and rescan nothing. Exclusions take a link of the
// parent's materialized paths, as FULLG's branching does, any link, or a
// node; parents are drawn from every table of the search, so exclusions
// nest. The test also shows it would catch a derivation that skips the
// rescans of an entry that moved: every ban child and link-exclusion
// child with such an entry is checked again with that entry reverted to
// its parent's, and must fail.
func TestSolveBanMatchesFill(t *testing.T) {
	t.Parallel()
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	var derived, bans, quiet, noops, excls, pathExcls, nested, nodeExcls, infeasible, mutants int
	var rescans, xrescans int64
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xba17))
		g := topo.MakeGPUVariant(topo.MustBuild(topo.CittaStudi, seed), 2, seed)
		n := g.NumNodes()
		prices := CostPrices(g)
		if seed%2 == 0 {
			for i := range prices {
				prices[i] *= 0.5 + rng.Float64()
			}
		}
		p := vnet.DefaultParams()
		apps := []*vnet.App{
			vnet.GenerateChain("chain", p, rng),
			vnet.GenerateTree("tree", p, rng),
			vnet.GenerateAccelerator("accel", p, rng),
			vnet.GenerateGPU("gpu", p, rng),
		}
		o := ForState(substrate.NewWithPrices(g, prices))
		check := func(where string, tab *Table) {
			t.Helper()
			if d := diffFill(o, g, prices, tab); d != "" {
				t.Fatalf("%s: %s", where, d)
			}
		}
		// mutant checks that reverting the first entry child's rescans
		// moved away from parent's is caught by the comparison with a
		// fill.
		mutant := func(where string, child, parent *Table, seed Ban) {
			t.Helper()
			i, x, ok := firstMoved(child, parent, seed)
			if !ok {
				return
			}
			want, _ := freshFill(g, prices, child)
			if diffTables(revertEntry(child, parent, i, x), want) == "" {
				t.Fatalf("%s: skipping the rescan of cost[%d][%d] went unnoticed", where, i, x)
			}
			mutants++
		}

		for _, app := range apps {
			for q := 0; q < 6; q++ {
				ingress := graph.NodeID(rng.IntN(n))
				var pool []*Table // every table of this search, each a possible parent
				root := new(Table)
				if !o.Solve(root, app, ingress, nil, nil) {
					continue
				}
				pool = append(pool, root)
				for step := 0; step < 14; step++ {
					parent := pool[rng.IntN(len(pool))]
					where := fmt.Sprintf("seed %d %s@%d step %d (bans %v, excluded %v)", seed, app.Name, ingress, step, parent.bans, parent.excl)
					child := new(Table)
					var ok bool
					switch op := rng.IntN(11); {
					case op < 5: // ban a VNF where the relaxation placed it
						e, _ := o.Embedding(parent)
						v := vnet.VNFID(1 + rng.IntN(len(app.VNFs)-1))
						b := Ban{v, e.NodeMap[v]}
						r0 := o.Work().BanRescans
						ok = o.SolveBan(child, parent, b)
						bans++
						check(where+fmt.Sprintf(" ban %v", b), child)
						if o.Work().BanRescans > r0 {
							mutant(where+fmt.Sprintf(" ban %v", b), child, parent, b)
						}
					case op < 6: // ban any finite entry
						v := vnet.VNFID(1 + rng.IntN(len(app.VNFs)-1))
						var finite []graph.NodeID
						for u, c := range parent.cost[v] {
							if c < math.Inf(1) {
								finite = append(finite, graph.NodeID(u))
							}
						}
						if len(finite) == 0 {
							continue
						}
						b := Ban{v, finite[rng.IntN(len(finite))]}
						r0 := o.Work().BanRescans
						ok = o.SolveBan(child, parent, b)
						bans++
						if o.Work().BanRescans == r0 {
							quiet++
						}
						check(where+fmt.Sprintf(" ban %v", b), child)
					case op < 7: // ban an entry that is already +Inf
						v := vnet.VNFID(1 + rng.IntN(len(app.VNFs)-1))
						u := slices.IndexFunc(parent.cost[v], func(c float64) bool { return math.IsInf(c, 1) })
						if u < 0 {
							continue
						}
						r0 := o.Work().BanRescans
						ok = o.SolveBan(child, parent, Ban{v, graph.NodeID(u)})
						noops++
						if o.Work().BanRescans != r0 || child.Price() != parent.Price() {
							t.Fatalf("%s: ban on +Inf entry (%d, %d) rescanned or moved the price", where, v, u)
						}
						for i := range child.cost {
							if &child.cost[i][0] != &parent.cost[i][0] {
								t.Fatalf("%s: ban on +Inf entry (%d, %d) copied row %d", where, v, u, i)
							}
						}
						check(where+" no-op ban", child)
					case op < 10: // exclude a link: on the parent's paths, or any
						var e graph.ElementID = -1
						if op < 9 {
							emb, _ := o.Embedding(parent)
							var used []graph.LinkID
							for _, pa := range emb.PathMap {
								used = append(used, pa.Links...)
							}
							if len(used) > 0 {
								e = g.LinkElement(used[rng.IntN(len(used))])
								pathExcls++
							}
						}
						if e < 0 {
							e = g.LinkElement(graph.LinkID(rng.IntN(g.NumLinks())))
						}
						if len(parent.excl) > 0 {
							nested++
						}
						ok = o.SolveExclude(child, parent, e)
						excls++
						check(where+fmt.Sprintf(" exclude %d", e), child)
						mutant(where+fmt.Sprintf(" exclude %d", e), child, parent, Ban{})
					default: // exclude a node
						e := g.NodeElement(graph.NodeID(rng.IntN(n)))
						ok = o.SolveExclude(child, parent, e)
						nodeExcls++
						check(where+fmt.Sprintf(" exclude node %d", e), child)
					}
					derived++
					if ok {
						pool = append(pool, child)
					} else {
						infeasible++
					}
				}
			}
		}
		rescans += o.Work().BanRescans
		xrescans += o.Work().ExclRescans
	}
	t.Logf("%d derived tables (%d bans, %d of them rescanning nothing, %d no-op bans; %d link exclusions, %d on the parent's paths, %d nested; %d node exclusions; %d infeasible), %d ban rescans, %d exclusion rescans, %d skipped-rescan mutants caught",
		derived, bans, quiet, noops, excls, pathExcls, nested, nodeExcls, infeasible, rescans, xrescans, mutants)
	if bans == 0 || quiet == 0 || noops == 0 || excls == 0 || pathExcls == 0 || nested == 0 || nodeExcls == 0 ||
		infeasible == 0 || rescans == 0 || xrescans == 0 || mutants == 0 {
		t.Fatal("vacuous run")
	}
}

// TestResetPinsNothing drives two pooled Tables the way FULLG's search
// pool does — Reset, one Solve, SolveBan or SolveExclude each, Reset —
// across apps of different sizes, fill and memo roots alike, and holds
// Reset, which clears to length, to its promise: after it, no entry up to
// the slices' capacity holds a row.
func TestResetPinsNothing(t *testing.T) {
	t.Parallel()
	g := topo.MustBuild(topo.Iris, 1)
	rng := rand.New(rand.NewPCG(3, 5))
	p := vnet.DefaultParams()
	apps := []*vnet.App{
		vnet.GenerateTree("tree", p, rng),
		vnet.GenerateChain("chain", p, rng),
		vnet.GenerateGPU("gpu", p, rng),
	}
	o := NewOracle(g, CostPrices(g))
	var root, child Table
	pinned := func(where string, tab *Table) {
		t.Helper()
		if i := heldRow(tab.cost); i >= 0 {
			t.Fatalf("%s: cost[%d] still holds a row after Reset", where, i)
		}
		if i := heldRow(tab.choice); i >= 0 {
			t.Fatalf("%s: choice[%d] still holds a row after Reset", where, i)
		}
		if i := heldRow(tab.best); i >= 0 {
			t.Fatalf("%s: best[%d] still holds a row after Reset", where, i)
		}
	}
	for k := 0; k < 60; k++ {
		app := apps[rng.IntN(len(apps))]
		ingress := graph.NodeID(rng.IntN(g.NumNodes()))
		var bans []Ban
		if k%2 == 1 { // a fill root instead of the memo's
			bans = []Ban{{vnet.VNFID(1 + rng.IntN(len(app.VNFs)-1)), graph.NodeID(rng.IntN(g.NumNodes()))}}
		}
		where := fmt.Sprintf("query %d %s@%d", k, app.Name, ingress)
		if o.Solve(&root, app, ingress, bans, nil) {
			if k%3 == 0 {
				o.SolveExclude(&child, &root, g.NodeElement(graph.NodeID(rng.IntN(g.NumNodes()))))
			} else {
				o.SolveBan(&child, &root, Ban{vnet.VNFID(1 + rng.IntN(len(app.VNFs)-1)), graph.NodeID(rng.IntN(g.NumNodes()))})
			}
		}
		root.Reset()
		child.Reset()
		pinned(where+" root", &root)
		pinned(where+" child", &child)
	}
}

// heldRow returns the first index up to rows' capacity that holds a
// row, or -1.
func heldRow[T any](rows [][]T) int {
	return slices.IndexFunc(rows[:cap(rows)], func(r []T) bool { return r != nil })
}
