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

// diffOrders describes the first non-root row of t whose order differs
// from a from-scratch sort of the row (refOrder), or returns "".
func diffOrders(t *Table) string {
	for i := range t.app.VNFs {
		if vnet.VNFID(i) == vnet.Root {
			continue
		}
		if want := refOrder(t.cost[i]); !slices.Equal(t.order[i], want) {
			return fmt.Sprintf("order[%d] = %v, sorted from scratch %v", i, t.order[i], want)
		}
	}
	return ""
}

// revertEntry returns a copy of child's table in which entry x of the row
// above the banned VNF b.V has the value, choice and best term it had in
// parent: what SolveBan would produce if it skipped that entry's rescan.
func revertEntry(child, parent *Table, b Ban, x int) *Table {
	m := *child
	li := child.shape.up[b.V]
	p := child.app.Links[li].From
	m.cost = slices.Clone(child.cost)
	m.choice = slices.Clone(child.choice)
	m.best = slices.Clone(child.best)
	m.cost[p] = slices.Clone(child.cost[p])
	m.choice[li] = slices.Clone(child.choice[li])
	m.best[li] = slices.Clone(child.best[li])
	m.cost[p][x], m.choice[li][x], m.best[li][x] = parent.cost[p][x], parent.choice[li][x], parent.best[li][x]
	return &m
}

// TestSolveBanMatchesFill drives restricted searches through random
// sequences of bans and link exclusions — chain, tree, accelerator and GPU
// apps on the GPU variant of Città Studi, under cost prices and under
// perturbed ones — and demands of every derived table that it equal a
// from-scratch fill under the same bans and exclusions on a fresh oracle:
// entry for entry (diffTables), and in the embedding it materializes (the
// root price bit for bit, the NodeMap, every path). Every row's scan order
// must equal a from-scratch sort of the row (diffOrders), whether fill
// sorted it or SolveBan derived it from the parent's. Bans land mostly
// where the relaxation placed a VNF, as FULLG's branching does, sometimes
// on any finite entry — often one no parent entry chose, so the walk
// changes a row and rescans nothing above it, and the order must be
// re-derived all the same — and sometimes on an entry that is already
// +Inf (a GPU mismatch or a repeated ban), which must change nothing and
// rescan nothing. The test also shows it would catch a SolveBan that skips
// the rescan of an entry whose choice was in the changed set: every ban
// child whose rescans moved an entry is checked again with that entry
// reverted to its parent's, and must fail.
func TestSolveBanMatchesFill(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	var derived, bans, quiet, noops, excls, infeasible, mutants int
	before := Stats()
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
		fresh := func(tab *Table) (*Table, *Oracle) {
			ref := NewOracle(g, prices)
			want := new(Table)
			ref.Solve(want, tab.app, tab.ingress, tab.bans, tab.excl)
			return want, ref
		}
		check := func(where string, tab *Table) {
			t.Helper()
			if d := diffOrders(tab); d != "" {
				t.Fatalf("%s: %s", where, d)
			}
			want, ref := fresh(tab)
			if math.Float64bits(tab.Price()) != math.Float64bits(want.Price()) {
				t.Fatalf("%s: price %v, fill %v", where, tab.Price(), want.Price())
			}
			if math.IsInf(want.Price(), 1) {
				return
			}
			if d := diffTables(tab, want); d != "" {
				t.Fatalf("%s: %s", where, d)
			}
			ge, gok := o.Embedding(tab)
			we, wok := ref.Embedding(want)
			if d := diffAnswer(ge, tab.Price(), gok, we, want.Price(), wok); d != "" {
				t.Fatalf("%s: %s", where, d)
			}
		}

		for _, app := range apps {
			for q := 0; q < 6; q++ {
				ingress := graph.NodeID(rng.IntN(n))
				var pool []*Table // every table of this search, each a possible parent
				root := new(Table)
				if !o.Solve(root, app, ingress, nil, nil) {
					continue
				}
				if d := diffOrders(root); d != "" {
					t.Fatalf("seed %d %s@%d root: %s", seed, app.Name, ingress, d)
				}
				pool = append(pool, root)
				for step := 0; step < 14; step++ {
					parent := pool[rng.IntN(len(pool))]
					where := fmt.Sprintf("seed %d %s@%d step %d (bans %v, excluded %v)", seed, app.Name, ingress, step, parent.bans, parent.excl)
					child := new(Table)
					var ok bool
					switch op := rng.IntN(9); {
					case op < 5: // ban a VNF where the relaxation placed it
						e, _ := o.Embedding(parent)
						v := vnet.VNFID(1 + rng.IntN(len(app.VNFs)-1))
						b := Ban{v, e.NodeMap[v]}
						r0 := Stats().BanRescans
						ok = o.SolveBan(child, parent, b)
						bans++
						check(where+fmt.Sprintf(" ban %v", b), child)
						li := child.shape.up[v]
						pr := app.Links[li].From
						lo, hi := 0, n
						if pr == vnet.Root {
							lo, hi = int(ingress), int(ingress)+1
						}
						for x := lo; x < hi && Stats().BanRescans > r0; x++ {
							if math.IsInf(parent.cost[pr][x], 1) || child.cost[pr][x] == parent.cost[pr][x] {
								continue
							}
							want, _ := fresh(child)
							if diffTables(revertEntry(child, parent, b, x), want) == "" {
								t.Fatalf("%s ban %v: skipping the rescan of cost[%d][%d] went unnoticed", where, b, pr, x)
							}
							mutants++
							break
						}
					case op < 6: // ban any finite entry
						v := vnet.VNFID(1 + rng.IntN(len(app.VNFs)-1))
						ord := parent.order[v]
						if len(ord) == 0 {
							continue
						}
						b := Ban{v, ord[rng.IntN(len(ord))]}
						r0 := Stats().BanRescans
						ok = o.SolveBan(child, parent, b)
						bans++
						if Stats().BanRescans == r0 {
							quiet++
						}
						check(where+fmt.Sprintf(" ban %v", b), child)
					case op < 7: // ban an entry that is already +Inf
						v := vnet.VNFID(1 + rng.IntN(len(app.VNFs)-1))
						u := slices.IndexFunc(parent.cost[v], func(c float64) bool { return math.IsInf(c, 1) })
						if u < 0 {
							continue
						}
						r0 := Stats().BanRescans
						ok = o.SolveBan(child, parent, Ban{v, graph.NodeID(u)})
						noops++
						if Stats().BanRescans != r0 || child.Price() != parent.Price() {
							t.Fatalf("%s: ban on +Inf entry (%d, %d) rescanned or moved the price", where, v, u)
						}
						for i := range child.cost {
							if &child.cost[i][0] != &parent.cost[i][0] {
								t.Fatalf("%s: ban on +Inf entry (%d, %d) copied row %d", where, v, u, i)
							}
						}
						check(where+" no-op ban", child)
					default: // exclude a link
						e := g.LinkElement(graph.LinkID(rng.IntN(g.NumLinks())))
						ok = o.SolveExclude(child, parent, e)
						excls++
						check(where+fmt.Sprintf(" exclude %d", e), child)
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
	}
	rescans := Stats().BanRescans - before.BanRescans
	t.Logf("%d derived tables (%d bans, %d of them rescanning nothing, %d no-op bans, %d exclusions, %d infeasible), %d rescans, %d skipped-rescan mutants caught",
		derived, bans, quiet, noops, excls, infeasible, rescans, mutants)
	if bans == 0 || quiet == 0 || noops == 0 || excls == 0 || infeasible == 0 || rescans == 0 || mutants == 0 {
		t.Fatal("vacuous run")
	}
}
