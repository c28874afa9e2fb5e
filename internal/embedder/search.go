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

// CompareBans orders bans by VNF, then node: the order of a Table's bans.
func CompareBans(a, b Ban) int {
	if c := cmp.Compare(a.V, b.V); c != 0 {
		return c
	}
	return cmp.Compare(a.U, b.U)
}

// Table is one solved node of a restricted search: app's embedding DP for
// one ingress under a sorted set of bans and a sorted set of excluded
// substrate elements (+Inf placement price for nodes, +Inf path weight for
// links). Its rows are shared copy-on-write with the table it was derived
// from and live in the State's scratch arena, so a Table is valid only
// until the next Solve on its oracle or the next change of the State's
// prices. The zero value is ready to be solved into; a Table keeps its own
// slices' capacity from one search to the next.
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
// search. It clears cost, choice and best to their length: a search
// rebuilds them from [:0] (Solve and inherit append to [:0], and fill's
// resizeOuter grows them from there and writes every entry it exposes
// before reading it), so on a Table Reset before each search nothing past
// the length holds a row.
func (t *Table) Reset() {
	clear(t.cost)
	clear(t.choice)
	clear(t.best)
	t.cost, t.choice, t.best = t.cost[:0], t.choice[:0], t.best[:0]
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
	slices.SortFunc(t.bans, CompareBans)
	t.excl = append(t.excl[:0], excl...)
	slices.Sort(t.excl)
	return o.solve(t)
}

// SolveExclude solves child as parent with element e excluded as well,
// deriving its table from parent's (see derive) instead of refilling it,
// bit-identical to a full fill under the same bans and exclusions. An
// excluded node's entry goes to +Inf in every row. An excluded link only
// raises distances, and a distance whose path in the State's
// shortest-path tree avoids every excluded link does not move at all, so
// only the entries whose chosen path there crosses an excluded link are
// rescanned, through an exclusion View, with those above them that chose
// an entry that moved. Excluding e again changes nothing. parent must
// have been solved, with ok, on this oracle in the current search.
func (o *Oracle) SolveExclude(child, parent *Table, e graph.ElementID) bool {
	o.inherit(child, parent)
	if math.IsInf(child.price, 1) {
		return false
	}
	i, found := slices.BinarySearch(child.excl, e)
	if found {
		return true
	}
	child.excl = slices.Insert(child.excl, i, e)
	if u, isNode := o.g.ElementNode(e); isNode {
		return o.derive(child, delta{node: u})
	}
	return o.derive(child, delta{node: -1, links: true})
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
// from parent's (see derive) instead of refilling it, bit-identical to a
// full fill under the same bans. The ban sets cost[V][U] to +Inf; a ban
// on an entry that is already +Inf, or on θ, changes nothing. parent must
// have been solved, with ok, on this oracle in the current search.
//
//olive:hotpath FULLG branch-out: a ban child is its parent's table plus a delta
func (o *Oracle) SolveBan(child, parent *Table, b Ban) bool {
	o.inherit(child, parent)
	if i, found := slices.BinarySearchFunc(child.bans, b, CompareBans); !found {
		child.bans = slices.Insert(child.bans, i, b)
	}
	if math.IsInf(child.price, 1) {
		return false
	}
	if b.V == vnet.Root || math.IsInf(child.cost[b.V][b.U], 1) {
		return true
	}
	return o.derive(child, delta{ban: b, node: -1})
}

// inherit makes child a copy of parent sharing all of its rows.
func (o *Oracle) inherit(child, parent *Table) {
	child.app, child.ingress, child.shape, child.price = parent.app, parent.ingress, parent.shape, parent.price
	child.bans = append(child.bans[:0], parent.bans...)
	child.excl = append(child.excl[:0], parent.excl...)
	child.cost = append(child.cost[:0], parent.cost...)
	child.choice = append(child.choice[:0], parent.choice...)
	child.best = append(child.best[:0], parent.best...)
}

// delta is what a derived child adds to the table it inherited: a ban
// (V > θ), an excluded node (node ≥ 0), or, with links set, an excluded
// link (the child's excl already holds it).
type delta struct {
	ban   Ban
	node  graph.NodeID
	links bool
}

// derive turns t, which shares its parent's rows, into the table of its
// own inputs, given the one delta they add. It walks the rows bottom-up
// (children before parents); in each row the delta seeds entries and the
// rows below propagate:
//
//   - a ban sets its entry to +Inf, and an excluded node its entry in
//     every row (at θ, only when it is the ingress);
//   - an entry is rescanned on a child link when its stored choice is an
//     entry of the child row that changed, or, after a link exclusion,
//     when the State's tree path from the entry's node to that choice
//     crosses one of t's excluded links (avoids). Each rescan is one
//     minLink, and each rescanned entry is re-summed as base + Σ best in
//     child-link order: fill's float operations in fill's order.
//
// Every other entry keeps its value and choice, bit for bit. Deltas only
// raise costs and distances, and a scan keeps the lowest-node minimum, so
// a candidate that is not the argmin cannot become it; the argmin keeps
// its cost when its child entry did not change and its distance when its
// tree path stays open, and so keeps its value and its choice. At θ only
// the ingress is rescanned. The entries whose value moved are the row's
// changed set, which seeds the row above. Modified rows are copied into
// the arena first; the parent's are never written.
//
//olive:hotpath FULLG branch-out: every child is its parent's table plus a delta
func (o *Oracle) derive(t *Table, d delta) bool {
	rows := o.st.ScratchArena()
	app, sh, n := t.app, t.shape, o.g.NumNodes()
	var links []graph.ElementID
	if d.links {
		k, _ := slices.BinarySearch(t.excl, graph.ElementID(n))
		links = t.excl[k:]
	}
	// The pather is acquired on the first rescan: an exclusion view
	// acquired for nothing would still cost its trees when the next
	// acquisition brings back another link set.
	var pa pather
	var view *substrate.View
	changed := resizeOuter(&o.changed, len(app.VNFs))
	mark, due := o.mark, o.due[:0]
	rescans := 0
	for _, i := range sh.order {
		lo, hi := 0, n
		if vnet.VNFID(i) == vnet.Root {
			lo, hi = int(t.ingress), int(t.ingress)+1
		}
		ci, ch := t.cost[i], changed[i][:0]
		seed := graph.NodeID(-1)
		if d.ban.V != vnet.Root && d.ban.V == vnet.VNFID(i) {
			seed = d.ban.U
		} else if int(d.node) >= lo && int(d.node) < hi {
			seed = d.node
		}
		if seed >= 0 && !math.IsInf(ci[seed], 1) {
			ci = cloneFloats(rows, ci)
			ci[seed] = math.Inf(1)
			ch = append(ch, seed)
		}
		copied := len(ch) > 0
		for _, li := range sh.children[i] {
			l := app.Links[li]
			below := changed[l.To]
			if len(below) == 0 && !d.links {
				continue
			}
			for _, w := range below {
				mark[w] = true
			}
			choice, best := t.choice[li], t.best[li]
			linkCopied := false
			for x := lo; x < hi; x++ {
				if math.IsInf(ci[x], 1) {
					continue
				}
				w := choice[x]
				if !mark[w] && (!d.links || o.avoids(graph.NodeID(x), w, links)) {
					continue
				}
				if !linkCopied {
					choice, best = cloneIDs(rows, choice), cloneFloats(rows, best)
					t.choice[li], t.best[li] = choice, best
					if pa == nil {
						pa, view = o.acquire(t.excl)
					}
					linkCopied = true
				}
				rescans++
				best[x], choice[x] = minLink(pa.DistRow(graph.NodeID(x)), l.Size, t.cost[l.To])
				if !o.isDue[x] {
					o.isDue[x] = true
					due = append(due, graph.NodeID(x))
				}
			}
			for _, w := range below {
				mark[w] = false
			}
		}
		for _, x := range due {
			o.isDue[x] = false
			c := o.baseCost(pa, app.VNFs[i], x)
			for _, lj := range sh.children[i] {
				if math.IsInf(c, 1) {
					break
				}
				c += t.best[lj][x]
			}
			if c != ci[x] {
				if !copied {
					ci, copied = cloneFloats(rows, ci), true
				}
				ci[x] = c
				ch = append(ch, x)
			}
		}
		due = due[:0]
		t.cost[i], changed[i] = ci, ch
	}
	o.due = due
	if view != nil {
		view.Close()
	}
	if d.ban.V != vnet.Root {
		o.work.BanRescans += int64(rescans)
	} else {
		o.work.ExclRescans += int64(rescans)
	}
	t.price = t.cost[vnet.Root][t.ingress]
	return !math.IsInf(t.price, 1)
}

// avoids reports whether the State's tree path from x to w crosses none
// of the excluded links, walking it up from w. If so, the view's distance
// from x to w is the State's, bit for bit: with non-negative weights a
// Dijkstra distance is the least left-to-right float sum over the paths
// open to it, excluding links only closes paths, and this one stays open.
func (o *Oracle) avoids(x, w graph.NodeID, links []graph.ElementID) bool {
	tr := o.st.Tree(x)
	for u := w; u != x; {
		lid := tr.ParentLink(u)
		if slices.Contains(links, o.g.LinkElement(lid)) {
			return false
		}
		u = o.g.Link(lid).Other(u)
	}
	return true
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
