package embedder

import (
	"cmp"
	"math"
	"slices"

	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/substrate"
	"github.com/olive-vne/olive/internal/vnet"
)

// Ban forbids placing VNF V on substrate node U. FULLG's capacity
// branch-out bans individual (VNF, node) pairs to discover split
// placements around a jointly overloaded node. A ban on θ is ignored.
type Ban struct {
	V vnet.VNFID
	U graph.NodeID
}

func compareBans(a, b Ban) int {
	if c := cmp.Compare(a.V, b.V); c != 0 {
		return c
	}
	return cmp.Compare(a.U, b.U)
}

// Table is one solved node of a restricted search: app's embedding DP for
// one ingress under a sorted set of bans and a sorted set of excluded
// substrate elements (+Inf placement price for nodes, +Inf path weight for
// links). Its rows and their scan orders are shared copy-on-write with the
// table it was derived from and live in the State's scratch arena, so a
// Table is valid only until the next Solve on its oracle or the next
// change of the State's prices. The zero value is ready to be solved into;
// a Table keeps its own slices' capacity from one search to the next.
type Table struct {
	dpTable
	app     *vnet.App
	ingress graph.NodeID
	bans    []Ban
	excl    []graph.ElementID
	price   float64
}

// Price is the per-unit-demand price of the table's min-cost embedding:
// +Inf when there is none.
func (t *Table) Price() float64 { return t.price }

// Reset drops every reference t holds to rows, app and inputs, keeping
// its slices' capacity, so that a pooled Table pins nothing of an earlier
// search.
func (t *Table) Reset() {
	clear(t.cost[:cap(t.cost)])
	clear(t.choice[:cap(t.choice)])
	clear(t.best[:cap(t.best)])
	clear(t.order[:cap(t.order)])
	t.cost, t.choice, t.best, t.order = t.cost[:0], t.choice[:0], t.best[:0], t.order[:0]
	t.shape, t.app = nil, nil
	t.bans, t.excl = t.bans[:0], t.excl[:0]
	t.price = 0
}

// Solve starts a restricted search at its root: t becomes app's min-cost
// embedding DP for ingress with bans applied and the elements of excl
// excluded (both are copied, and sorted). Solve reclaims the rows of every
// Table solved on this oracle since the previous Solve; those must not be
// used again. With no bans and nothing excluded, t shares the app's memo
// table read-only; otherwise t is filled from scratch, its root row at the
// ingress only. ok is false when no finite-price embedding exists or
// ingress is not a substrate node.
func (o *Oracle) Solve(t *Table, app *vnet.App, ingress graph.NodeID, bans []Ban, excl []graph.ElementID) bool {
	o.st.ScratchArena().Reset()
	t.app, t.ingress = app, ingress
	t.bans = append(t.bans[:0], bans...)
	slices.SortFunc(t.bans, compareBans)
	t.excl = append(t.excl[:0], excl...)
	slices.Sort(t.excl)
	return o.solve(t)
}

// SolveExclude solves child as parent with element e excluded as well —
// a full fill, since an excluded link moves shortest paths everywhere.
// parent must have been solved on this oracle in the current search.
func (o *Oracle) SolveExclude(child, parent *Table, e graph.ElementID) bool {
	child.app, child.ingress = parent.app, parent.ingress
	child.bans = append(child.bans[:0], parent.bans...)
	child.excl = append(child.excl[:0], parent.excl...)
	if i, found := slices.BinarySearch(child.excl, e); !found {
		child.excl = slices.Insert(child.excl, i, e)
	}
	return o.solve(child)
}

// solve fills t for its recorded inputs: a read-only share of the memo
// table when it has none, a full fill into the scratch arena otherwise.
func (o *Oracle) solve(t *Table) bool {
	if !o.validNode(t.ingress) {
		t.price = math.Inf(1)
		return false
	}
	if len(t.bans) == 0 && len(t.excl) == 0 {
		m := o.table(t.app)
		t.shape = m.shape
		t.cost = append(t.cost[:0], m.cost...)
		t.choice = append(t.choice[:0], m.choice...)
		t.best = append(t.best[:0], m.best...)
		t.order = append(t.order[:0], m.order...)
	} else {
		pa, view := o.acquire(t.excl)
		o.fill(&t.dpTable, o.st.ScratchArena(), pa, t.app, t.bans, t.ingress)
		if view != nil {
			view.Close()
		}
	}
	t.price = t.cost[vnet.Root][t.ingress]
	return !math.IsInf(t.price, 1)
}

// SolveBan solves child as parent with ban b added, deriving its table
// from parent's instead of refilling it, bit-identical to a full fill
// under the same bans. parent must have been solved, with ok, on this
// oracle in the current search.
//
// The ban sets cost[V][U] to +Inf; then, walking up from V, only the
// parent-row entries whose stored choice lies in the set of entries that
// just changed are rescanned (at θ, only the ingress), each re-summed as
// base + Σ best in child-link order — fill's float operations in fill's
// order — and the entries whose value moved form the next level's set.
// Every other entry keeps its value and choice: bans only raise costs, and
// a scan keeps the lowest-node minimum, so raising an entry that is not
// the argmin cannot move the argmin. A ban on an entry that is already
// +Inf changes nothing. Every row that changed gets its order re-derived
// from the parent's (deriveOrder), before the level above scans it — even
// where nothing above rescans, since this table's own ban children read
// it. Modified rows and orders are copied into the arena first; the
// parent's are never written.
//
//olive:hotpath FULLG branch-out: a ban child is its parent's table plus a delta
func (o *Oracle) SolveBan(child, parent *Table, b Ban) bool {
	child.app, child.ingress, child.shape, child.price = parent.app, parent.ingress, parent.shape, parent.price
	child.bans = append(child.bans[:0], parent.bans...)
	if i, found := slices.BinarySearchFunc(child.bans, b, compareBans); !found {
		child.bans = slices.Insert(child.bans, i, b)
	}
	child.excl = append(child.excl[:0], parent.excl...)
	child.cost = append(child.cost[:0], parent.cost...)
	child.choice = append(child.choice[:0], parent.choice...)
	child.best = append(child.best[:0], parent.best...)
	child.order = append(child.order[:0], parent.order...)
	if math.IsInf(child.price, 1) {
		return false
	}
	if b.V == vnet.Root || math.IsInf(child.cost[b.V][b.U], 1) {
		return true
	}

	rows := o.st.ScratchArena()
	app, sh := child.app, child.shape
	child.cost[b.V] = cloneFloats(rows, child.cost[b.V])
	child.cost[b.V][b.U] = math.Inf(1)

	// The pather is acquired on the first rescan: an exclusion view
	// acquired for nothing would still cost its trees when the next
	// acquisition brings back another link set.
	var pa pather
	var view *substrate.View
	mark := o.banMark
	changed := append(o.banChanged[:0], b.U)
	next := o.banNext[:0]
	rescans, scans := 0, 0
	for v := b.V; v != vnet.Root && len(changed) > 0; {
		li := sh.up[v]
		l := app.Links[li]
		p := l.From
		for _, x := range changed {
			mark[x] = true
		}
		child.order[v] = o.deriveOrder(rows, child.order[v], child.cost[v], changed, mark)
		lo, hi := 0, o.g.NumNodes()
		if p == vnet.Root {
			lo, hi = int(child.ingress), int(child.ingress)+1
		}
		pcost, choice := child.cost[p], child.choice[li]
		copied := false
		next = next[:0]
		for x := lo; x < hi; x++ {
			if math.IsInf(pcost[x], 1) || !mark[choice[x]] {
				continue
			}
			if !copied {
				pcost, choice = cloneFloats(rows, pcost), cloneIDs(rows, choice)
				child.cost[p], child.choice[li] = pcost, choice
				child.best[li] = cloneFloats(rows, child.best[li])
				if pa == nil {
					pa, view = o.acquire(child.excl)
				}
				copied = true
			}
			rescans++
			u := graph.NodeID(x)
			var k int
			child.best[li][x], choice[x], k = minLink(pa.DistRow(u), l.Size, child.cost[v], child.order[v])
			scans += k
			c := o.baseCost(pa, app.VNFs[p], u)
			for _, lj := range sh.children[p] {
				if math.IsInf(c, 1) {
					break
				}
				c += child.best[lj][x]
			}
			if c != pcost[x] {
				pcost[x] = c
				next = append(next, u)
			}
		}
		for _, x := range changed {
			mark[x] = false
		}
		changed, next = next, changed
		v = p
	}
	o.banChanged, o.banNext = changed[:0], next[:0]
	if view != nil {
		view.Close()
	}
	counters.banRescans.Add(int64(rescans))
	counters.linkScans.Add(int64(scans))
	child.price = child.cost[vnet.Root][child.ingress]
	return !math.IsInf(child.price, 1)
}

// Embedding materializes the min-cost embedding t encodes, with its paths
// taken under t's exclusions. ok is false when t has none. A search calls
// it only for the tables it pops; the rest never allocate an Embedding.
//
//olive:hotpath FULLG materializes only the search nodes it pops
func (o *Oracle) Embedding(t *Table) (*vnet.Embedding, bool) {
	if t.app == nil || math.IsInf(t.price, 1) {
		return nil, false
	}
	pa, view := o.acquire(t.excl)
	e, ok := o.materialize(pa, &t.dpTable, t.app, t.ingress)
	if view != nil {
		view.Close()
	}
	return e, ok
}

// acquire returns the pather for a sorted exclusion set: the State itself
// when nothing is excluded, otherwise a pooled View the caller must Close
// before the next acquire (the View reads the oracle's exclusion set).
func (o *Oracle) acquire(excl []graph.ElementID) (pather, *substrate.View) {
	if len(excl) == 0 {
		return o.st, nil
	}
	clear(o.exclSet)
	for _, e := range excl {
		o.exclSet[e] = true
	}
	v := o.st.AcquireView(o.exclSet)
	return v, v
}

// cloneFloats and cloneIDs copy a row into a fresh arena chunk.
func cloneFloats(rows *substrate.Arena, row []float64) []float64 {
	c := rows.Float64s(len(row))
	copy(c, row)
	return c
}

func cloneIDs(rows *substrate.Arena, row []graph.NodeID) []graph.NodeID {
	c := rows.NodeIDs(len(row))
	copy(c, row)
	return c
}
