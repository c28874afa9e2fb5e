// Package embedder finds minimum-cost integral embeddings of a virtual
// network (a rooted tree of VNFs) onto a substrate under arbitrary
// per-element prices.
//
// The core routine, MinCostEmbed, is a dynamic program over the VN tree
// with shortest paths on the substrate: for tree-shaped virtual networks
// it returns the exact cost-minimal mapping (each virtual link's path
// chosen independently along a shortest path under the given prices).
// Each DP entry scans its child row for the cheapest child node (minLink).
// It is used three ways in the reproduction:
//
//   - as the FULLG baseline's per-request exact embedder (paper §IV-A),
//   - as the pricing oracle of the PLAN-VNE column generation (the
//     Dantzig–Wolfe subproblem: prices = element costs minus LP duals),
//   - to seed initial candidate columns for the plan LP.
//
// Collocated embeddings (all functional VNFs on one node — the restriction
// QUICKG and OLIVE's GREEDYEMBED use, §III-C) are produced by
// BestCollocated and KCheapestCollocated.
//
// An Oracle is a thin view over a substrate.State: path queries hit the
// State's lazy per-source Dijkstra cache (no eager all-pairs rebuild), and
// the unrestricted DP table (per app), collocated embeddings (per
// (app, ingress, node)) and BestCollocated's candidate order (per
// (app, ingress)) are memoized for as long as the State's prices stand
// still.
//
// FULLG's capacity branch-out runs a restricted search over Tables (see
// Solve): its root shares the memo table, and a child that bans one more
// (VNF, node) pair (SolveBan) or excludes one more element (SolveExclude)
// is derived from its parent's table by recomputing only the entries the
// change can move. An excluded link moves only the entries whose chosen
// path in the State's shortest-path tree crosses it, and those are
// rescanned through a pooled substrate View.
// A search's rows live in the State's scratch arena until the next Solve,
// and an Embedding is built only for the tables the search asks about.
package embedder

import (
	"math"

	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/substrate"
	"github.com/olive-vne/olive/internal/vnet"
)

// Prices assigns a per-CU price to every substrate element (flat element
// indexing). A price of +Inf excludes the element.
type Prices []float64

// CostPrices returns the substrate's own element costs as prices.
func CostPrices(g *graph.Graph) Prices {
	p := make(Prices, g.NumElements())
	for i := range p {
		p[i] = g.ElementCost(graph.ElementID(i))
	}
	return p
}

// AdjustedPricesInto returns cost(s) − dual[s] for column-generation
// pricing, written into dst (reused when large enough): capacity-row duals
// are ≤ 0 at optimality, so congested elements become more expensive. dual
// is indexed by element. The plan's pricing loop calls it once per round.
func AdjustedPricesInto(dst Prices, g *graph.Graph, dual []float64) Prices {
	if cap(dst) < g.NumElements() {
		dst = make(Prices, g.NumElements())
	}
	dst = dst[:g.NumElements()]
	for i := range dst {
		dst[i] = g.ElementCost(graph.ElementID(i)) - dual[i]
	}
	return dst
}

// pather answers price and shortest-path queries for the embedding DP:
// either a substrate.State directly (no exclusions, cached trees shared by
// every query under the same prices) or a substrate.View (exclusion
// overlay with view-private trees).
type pather interface {
	NodePrice(u graph.NodeID) float64
	Dist(src, dst graph.NodeID) float64
	DistRow(src graph.NodeID) []float64
	PathBetween(src, dst graph.NodeID) (graph.Path, bool)
}

// Oracle answers min-cost embedding queries over one substrate.State.
// Construction is free — no all-pairs computation; shortest-path trees are
// built lazily per source inside the State and shared between all oracles
// and engines viewing it. Not safe for concurrent use (like its State).
// Apps are identified by pointer and must not change once queried.
type Oracle struct {
	st *substrate.State
	g  *graph.Graph

	// colloc memoizes collocated embeddings per (app, ingress, node), and
	// walks BestCollocated's candidate order per app and ingress (nil
	// until first asked for); both are valid while the State's price
	// generation is collocGen.
	colloc    map[collocKey]collocEntry
	walks     map[*vnet.App][][]walkSlot
	collocGen uint64

	// tables memoizes the unrestricted DP table per app. Nothing in a
	// table depends on the ingress, so every (app, ingress) query under
	// one price vector reads the same one; an entry is refilled, into its
	// own storage, when the State's price generation has moved.
	tables map[*vnet.App]*memoTable
	// shapes holds each queried app's tree structure, built once.
	shapes map[*vnet.App]*appShape

	// Restricted-search scratch: the exclusion set handed to pooled
	// Views, and derive's per-row changed-entry lists, its list of
	// entries due for a re-sum, two per-node flags — mark (a changed
	// entry of the row below) and isDue (on the due list).
	exclSet     map[graph.ElementID]bool
	changed     [][]graph.NodeID
	due         []graph.NodeID
	mark, isDue []bool

	cands []scoredNode

	work CountersSnapshot
}

// appShape is the tree structure the DP runs along: children[i] lists the
// child link indices of VNF i in link order, up[i] is the link into VNF i
// from its parent (-1 at θ), and order lists the VNFs so that every child
// precedes its parent.
type appShape struct {
	children [][]int
	up       []int
	order    []int
}

// dpTable is one filled embedding DP: cost[i][u] is the minimal price of
// the subtree rooted at VNF i when i sits on node u, choice[li][u] the
// best child node for link li given its parent on u, and best[li][u] that
// child's subtree price plus the link's path price — the term fill adds
// to cost[From][u], kept so a ban child can re-sum an entry it rescans.
// Entries whose cost is +Inf carry no valid choice or best.
type dpTable struct {
	shape  *appShape
	cost   [][]float64
	choice [][]graph.NodeID
	best   [][]float64
}

// memoTable is a kept dpTable: gen is the State.PriceGen its rows were
// filled under — PriceGen, not Epoch, because node prices enter every cost
// row and a node-price change does not bump the Epoch — and rows their
// storage (the State's arena belongs to restricted searches).
type memoTable struct {
	dpTable
	gen  uint64
	rows substrate.Arena
}

type collocKey struct {
	app     *vnet.App
	ingress graph.NodeID
	u       graph.NodeID
}

type collocEntry struct {
	e     *vnet.Embedding
	price float64
	ok    bool
}

// walkSlot is one candidate of a BestCollocated walk: its hosting node
// and, once a walk has reached it (visited), what collocated returned for
// it.
type walkSlot struct {
	e       *vnet.Embedding
	price   float64
	u       int32
	visited bool
	ok      bool
}

// ForState returns an oracle viewing st. Multiple oracles may view one
// State (sequentially); they share its path cache but not their memos.
func ForState(st *substrate.State) *Oracle {
	return &Oracle{
		st: st, g: st.Graph(),
		colloc: make(map[collocKey]collocEntry), collocGen: st.PriceGen(),
		walks:   make(map[*vnet.App][][]walkSlot),
		tables:  make(map[*vnet.App]*memoTable),
		shapes:  make(map[*vnet.App]*appShape),
		exclSet: make(map[graph.ElementID]bool),
		mark:    make([]bool, st.Graph().NumNodes()),
		isDue:   make([]bool, st.Graph().NumNodes()),
	}
}

// NewOracle prepares an oracle for the given prices over a private
// substrate.State. Callers that already hold a State should use ForState
// instead and batch queries per price vector via SetPrices.
func NewOracle(g *graph.Graph, pr Prices) *Oracle {
	return ForState(substrate.NewWithPrices(g, pr))
}

// State returns the substrate state this oracle views.
func (o *Oracle) State() *substrate.State { return o.st }

// validNode reports whether u names a substrate node. Every exported
// query checks its ingress with it (MinCostEmbed and Solve, before any DP
// work): a node ID is caller input, and an out-of-range one means "no
// embedding", not an index panic.
func (o *Oracle) validNode(u graph.NodeID) bool { return u >= 0 && int(u) < o.g.NumNodes() }

// MinCostEmbed returns the cost-minimal embedding of app with θ pinned at
// ingress, under the oracle's prices, along with its per-unit-demand price
// (Σ β·η·price over the mapping). ok is false when no finite-price
// embedding exists (e.g. all GPU nodes excluded for a GPU VNF) or ingress
// is not a substrate node.
//
// The DP is exact for tree-shaped apps: children subtrees are independent
// given the parent's placement, and each virtual link independently takes
// a shortest path under the prices. Its table does not depend on the
// ingress and is memoized per app until the State's prices change, so a
// pricing round asking about every (app, ingress) class fills one table
// per app and answers each class with a row read and a top-down walk.
//
//olive:hotpath per-request embedding decision entry point
func (o *Oracle) MinCostEmbed(app *vnet.App, ingress graph.NodeID) (*vnet.Embedding, float64, bool) {
	if !o.validNode(ingress) {
		return nil, 0, false
	}
	t := o.table(app)
	e, ok := o.materialize(o.st, t, app, ingress)
	if !ok {
		return nil, 0, false
	}
	return e, t.cost[vnet.Root][ingress], true
}

// materialize reconstructs, top-down, the embedding a filled table encodes
// for ingress; ok is false when the table's root entry is +Inf.
func (o *Oracle) materialize(pa pather, t *dpTable, app *vnet.App, ingress graph.NodeID) (*vnet.Embedding, bool) {
	if math.IsInf(t.cost[vnet.Root][ingress], 1) {
		return nil, false
	}
	// nodeMap and pathMap escape into the Embedding, so they are real
	// allocations, not arena chunks.
	nodeMap := make([]graph.NodeID, len(app.VNFs))
	nodeMap[vnet.Root] = ingress
	pathMap := make([]graph.Path, len(app.Links))
	t.place(pa, app, vnet.Root, nodeMap, pathMap)

	e, err := vnet.NewEmbedding(o.g, app, nodeMap, pathMap)
	if err != nil {
		// Only possible if prices admit a node that η forbids —
		// prevented by fill, so treat as "no embedding".
		return nil, false
	}
	return e, true
}

// table returns app's memoized unrestricted table over the oracle's State,
// refilling it when the State's prices have changed since it was filled.
func (o *Oracle) table(app *vnet.App) *dpTable {
	gen := o.st.PriceGen()
	t := o.tables[app]
	if t == nil {
		t = new(memoTable)
		o.tables[app] = t
	} else if t.gen == gen {
		o.work.DPTableHits++
		return &t.dpTable
	}
	t.rows.Reset()
	o.fill(&t.dpTable, &t.rows, o.st, app, nil, -1)
	t.gen = gen
	return &t.dpTable
}

// shape returns app's tree structure, building it on first use.
func (o *Oracle) shape(app *vnet.App) *appShape {
	if s := o.shapes[app]; s != nil {
		return s
	}
	s := &appShape{
		children: make([][]int, len(app.VNFs)),
		up:       make([]int, len(app.VNFs)),
	}
	s.up[vnet.Root] = -1
	for li, l := range app.Links {
		s.children[l.From] = append(s.children[l.From], li)
		s.up[l.To] = li
	}
	// Links are listed parent-to-child, but branch interleaving means a
	// reverse index sweep is not a post-order, so compute one explicitly.
	s.order = appendPostOrder(nil, app, s.children, vnet.Root)
	o.shapes[app] = s
	return s
}

// fill runs the embedding DP for app bottom-up into t, drawing the rows
// from rows. A ban sets its VNF's base entry to +Inf before the child links
// are summed in. With ingress ≥ 0 the root row is computed at the ingress
// only — the one entry a restricted query reads — and is +Inf elsewhere;
// a negative ingress fills it whole, as the ingress-independent memo needs.
// Each entry runs one minLink per child link. fill builds the memo tables
// and the tables Solve is asked for with bans or exclusions; a restricted
// search derives every other table from its parent's (derive), and the
// tests hold those to a fill.
func (o *Oracle) fill(t *dpTable, rows *substrate.Arena, pa pather, app *vnet.App, bans []Ban, ingress graph.NodeID) {
	o.work.DPFills++
	n := o.g.NumNodes()
	sh := o.shape(app)
	t.shape = sh
	cost := resizeOuter(&t.cost, len(app.VNFs))
	choice := resizeOuter(&t.choice, len(app.Links))
	best := resizeOuter(&t.best, len(app.Links))

	for _, i := range sh.order {
		v := app.VNFs[i]
		ci := rows.Float64s(n)
		lo, hi := 0, n
		if v.ID == vnet.Root && ingress >= 0 {
			lo, hi = int(ingress), int(ingress)+1
			for u := range ci {
				ci[u] = math.Inf(1)
			}
		}
		for u := lo; u < hi; u++ {
			ci[u] = o.baseCost(pa, v, graph.NodeID(u))
		}
		for _, b := range bans {
			if b.V == v.ID && b.V != vnet.Root {
				ci[b.U] = math.Inf(1)
			}
		}
		for _, li := range sh.children[i] {
			l := app.Links[li]
			childCost := cost[l.To]
			ch, bs := rows.NodeIDs(n), rows.Float64s(n)
			for u := lo; u < hi; u++ {
				if math.IsInf(ci[u], 1) {
					continue
				}
				bs[u], ch[u] = minLink(pa.DistRow(graph.NodeID(u)), l.Size, childCost)
				ci[u] += bs[u]
			}
			choice[li], best[li] = ch, bs
		}
		cost[i] = ci
	}
}

// baseCost is VNF v's own placement price on node u: +Inf where η or the
// node's price forbids u.
func (o *Oracle) baseCost(pa pather, v vnet.VNF, u graph.NodeID) float64 {
	eta, p := vnet.Eff(v, o.g.Node(u)), pa.NodePrice(u)
	if math.IsInf(eta, 1) || math.IsInf(p, 1) {
		return math.Inf(1)
	}
	return v.Size * eta * p
}

// minLink is one DP entry's scan over a child link: the minimum of
// size·dist + child cost over the child's nodes w, and the lowest w that
// attains it — the first strict minimum of a scan in index order, so a tie
// goes to the lower node, and -1 when every candidate is +Inf or NaN. du is
// the parent node's distance row — one row fetch per entry, so the scan
// indexes the cached row directly instead of paying an interface call per
// w.
//
//olive:hotpath the DP's inner loop: every fill and rescan runs it per entry
func minLink(du []float64, size float64, childCost []float64) (float64, graph.NodeID) {
	best := math.Inf(1)
	bestW := graph.NodeID(-1)
	for w, cw := range childCost {
		if c := size*du[w] + cw; c < best {
			best, bestW = c, graph.NodeID(w)
		}
	}
	return best, bestW
}

// place maps the subtree below VNF i, whose node nodeMap[i] is already
// decided, onto the table's choices.
func (t *dpTable) place(pa pather, app *vnet.App, i vnet.VNFID, nodeMap []graph.NodeID, pathMap []graph.Path) {
	u := nodeMap[i]
	for _, li := range t.shape.children[i] {
		l := app.Links[li]
		w := t.choice[li][u]
		nodeMap[l.To] = w
		pathMap[li], _ = pa.PathBetween(u, w)
		t.place(pa, app, l.To, nodeMap, pathMap)
	}
}

// appendPostOrder appends the VNF indices of the subtree rooted at i so
// that every child precedes its parent.
func appendPostOrder(order []int, app *vnet.App, children [][]int, i vnet.VNFID) []int {
	for _, li := range children[i] {
		order = appendPostOrder(order, app, children, app.Links[li].To)
	}
	return append(order, int(i))
}

// resizeOuter grows (never shrinks) an outer scratch slice to n entries.
func resizeOuter[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

// syncCollocGen drops the collocated memos, embeddings and walks alike,
// when the State's prices have moved since they were built.
func (o *Oracle) syncCollocGen() {
	if gen := o.st.PriceGen(); gen != o.collocGen {
		clear(o.colloc)
		clear(o.walks)
		o.collocGen = gen
	}
}

// collocated returns the memoized collocated embedding of app on node u
// with θ at ingress: every functional VNF on u, every θ-adjacent virtual
// link along the price-shortest ingress→u path. ok is false if u is
// excluded (price or η) or unreachable. It builds and caches the entry on
// first use; entries are invalidated wholesale when the State's prices
// change, and callers receive a shared immutable Embedding. Callers check
// ingress and pass u in [0, n).
func (o *Oracle) collocated(app *vnet.App, ingress, u graph.NodeID) (*vnet.Embedding, float64, bool) {
	o.syncCollocGen()
	key := collocKey{app, ingress, u}
	if ent, ok := o.colloc[key]; ok {
		return ent.e, ent.price, ent.ok
	}
	e, price, ok := o.buildCollocated(app, ingress, u)
	o.colloc[key] = collocEntry{e, price, ok}
	return e, price, ok
}

func (o *Oracle) buildCollocated(app *vnet.App, ingress, u graph.NodeID) (*vnet.Embedding, float64, bool) {
	price, ok := o.collocPrice(app, ingress, u)
	if !ok {
		return nil, 0, false
	}
	// One shared single-node path serves every collocated virtual link —
	// paths are immutable once inside an Embedding.
	selfPath := graph.Path{Nodes: []graph.NodeID{u}}
	rootPath := selfPath
	if ingress != u {
		// collocPrice found a finite distance, so the path exists.
		rootPath, _ = o.st.PathBetween(ingress, u)
	}
	nodeMap := make([]graph.NodeID, len(app.VNFs))
	nodeMap[vnet.Root] = ingress
	for i := 1; i < len(nodeMap); i++ {
		nodeMap[i] = u
	}
	pathMap := make([]graph.Path, len(app.Links))
	for li, l := range app.Links {
		if l.From == vnet.Root {
			pathMap[li] = rootPath
		} else {
			pathMap[li] = selfPath
		}
	}
	e, err := vnet.NewEmbedding(o.g, app, nodeMap, pathMap)
	if err != nil {
		return nil, 0, false
	}
	return e, price, true
}

// collocPrice is the single implementation of the collocated price
// formula: Σ β·η·nodePrice over the VNFs plus Σ β·dist over the
// θ-adjacent virtual links. ok is false when u is excluded (price or η)
// or unreachable. buildCollocated and KCheapestCollocated's ranking both
// read it, so the ranking is bit-identical to the materialized price by
// construction.
func (o *Oracle) collocPrice(app *vnet.App, ingress, u graph.NodeID) (float64, bool) {
	if math.IsInf(o.st.NodePrice(u), 1) {
		return 0, false
	}
	node := o.g.Node(u)
	var price float64
	for _, v := range app.VNFs {
		eta := vnet.Eff(v, node)
		if math.IsInf(eta, 1) {
			return 0, false
		}
		price += v.Size * eta * o.st.NodePrice(u)
	}
	var rootCost float64
	if ingress != u {
		d := o.st.Dist(ingress, u)
		if math.IsInf(d, 1) {
			return 0, false
		}
		rootCost = d
	}
	for _, l := range app.Links {
		if l.From == vnet.Root {
			price += l.Size * rootCost
		}
	}
	return price, true
}

// scoredNode pairs a candidate hosting node with its embedding price.
type scoredNode struct {
	u     graph.NodeID
	price float64
}

func sortCands(cs []scoredNode) {
	// Insertion sort keeps the dependency footprint minimal; candidate
	// lists are at most NumNodes (≤100) long.
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].price < cs[j-1].price; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// BestCollocated returns the cheapest collocated embedding of app rooted
// at ingress that satisfies demand d within the residual capacities res
// (Eq. 18); candidates are scanned in increasing price. ok is false if no
// feasible collocated embedding exists. Passing a nil res skips
// feasibility and returns the globally cheapest collocated embedding. An
// ingress that is not a substrate node, a non-nil res shorter than the
// substrate's element count, and a NaN or negative d all have no
// embedding.
// The returned Embedding may be memo-shared with other callers and must
// be treated as immutable.
//
// The scan walks the (app, ingress) candidate order memoized by walk, and
// each slot keeps what collocated returned the first time a walk reached
// it, so a query under unchanged prices neither scores, sorts nor hashes
// a candidate: it only checks feasibility, from the cheapest up.
//
//olive:hotpath per-request greedy fallback (GREEDYEMBED)
func (o *Oracle) BestCollocated(app *vnet.App, ingress graph.NodeID, res []float64, d float64) (*vnet.Embedding, float64, bool) {
	if !o.validNode(ingress) || (res != nil && len(res) < o.g.NumElements()) || !(d >= 0) {
		return nil, 0, false
	}
	w := o.walk(app, ingress)
	for i := range w {
		s := &w[i]
		if !s.visited {
			s.e, s.price, s.ok = o.collocated(app, ingress, graph.NodeID(s.u))
			s.visited = true
		}
		if !s.ok || (res != nil && !s.e.FitsResidual(res, d)) {
			continue
		}
		return s.e, s.price, true
	}
	return nil, 0, false
}

// walk returns BestCollocated's candidate order for (app, ingress) under
// the State's current prices, building it on first use: every node of
// finite price and distance, scored by the collocated price bound
// nodeSize·NodePrice(u) + rootLinkSize·Dist(ingress, u) (exact for the
// collocated form) and sorted by sortCands, ties to the lower node. Its
// slots start unvisited; no embedding is built here.
func (o *Oracle) walk(app *vnet.App, ingress graph.NodeID) []walkSlot {
	o.syncCollocGen()
	byIngress := o.walks[app]
	if byIngress == nil {
		byIngress = make([][]walkSlot, o.g.NumNodes())
		o.walks[app] = byIngress
	}
	if w := byIngress[ingress]; w != nil {
		return w
	}
	o.work.CollocOrders++
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
	w := make([]walkSlot, len(cands)) // non-nil even when empty: built
	for k, c := range cands {
		w[k].u = int32(c.u)
	}
	byIngress[ingress] = w
	return w
}

// KCheapestCollocated returns up to k collocated embeddings in increasing
// price order, ignoring capacities — the initial columns of the plan LP.
// Candidates are ranked by their exact collocated price (computed without
// building embeddings); only the k winners are materialized, via the
// memo. A k ≤ 0 asks for nothing and gets nil.
func (o *Oracle) KCheapestCollocated(app *vnet.App, ingress graph.NodeID, k int) []*vnet.Embedding {
	if k <= 0 || !o.validNode(ingress) {
		return nil
	}
	cands := o.cands[:0]
	for u := 0; u < o.g.NumNodes(); u++ {
		if price, ok := o.collocPrice(app, ingress, graph.NodeID(u)); ok {
			cands = append(cands, scoredNode{graph.NodeID(u), price})
		}
	}
	sortCands(cands)
	o.cands = cands
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]*vnet.Embedding, 0, len(cands))
	for _, c := range cands {
		// collocPrice mirrors buildCollocated's feasibility exactly, so
		// ok should always hold here; guard anyway so a future
		// divergence drops the candidate instead of emitting a nil.
		if e, _, ok := o.collocated(app, ingress, c.u); ok {
			out = append(out, e)
		}
	}
	return out
}
