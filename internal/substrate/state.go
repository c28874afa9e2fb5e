// Package substrate is the shared substrate-state layer of the online
// machinery: one State owns the residual-capacity vector, the per-element
// price vector, and a query-driven shortest-path cache over the physical
// graph, so that every layer above (embedder, core engines, SLOTOFF, the
// simulation driver) reads and mutates one coherent view instead of each
// cloning vectors and rebuilding all-pairs oracles ad hoc.
//
// # Cache invalidation rules
//
// The shortest-path cache holds one lazily computed single-source Dijkstra
// tree per source node, weighted by the current link prices. Invalidation
// is per element kind:
//
//   - Link price changes invalidate the path cache (they change edge
//     weights). Invalidation is lazy: SetPrice/SetPrices bump the price
//     epoch and stale trees are recomputed — into their existing buffers —
//     on the next query.
//   - Node price changes never touch the path cache: node prices only
//     enter placement costs, not path weights.
//   - Residual changes never invalidate anything: prices, not residuals,
//     define path weights, and feasibility is always evaluated against the
//     live residual vector.
//
// Exclusion queries (FULLG's capacity branch-out retries around saturated
// elements) go through transient Views: a View overlays an exclusion set
// (+Inf link weights, +Inf node prices) on the State's prices. It keeps
// its own per-link weight vector — the link prices with the excluded
// links at +Inf — and its own lazily built trees, computed by the same
// graph.DijkstraLinkWeightsInto kernel as the State's, pooled and
// recycled so a retry costs no steady-state allocations. A recycled View
// also keeps the vector and the trees when it is re-acquired with the
// same set of excluded links and no link price has moved since they were
// built: only excluded links and link prices enter a tree, so node
// exclusions — read live from the caller's map — never cost a Dijkstra.
// FULLG's sibling branch-and-bound children differ in banned (VNF, node)
// pairs, not in excluded links, and so share one set of trees.
//
// A State is not safe for concurrent use. The parallel experiment runner
// gives every simulation cell its own State over its own graph; the
// underlying graph is never mutated through this layer.
package substrate

import (
	"math"
	"slices"

	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/vnet"
)

// State is the shared substrate state: residuals, prices and the lazy
// shortest-path cache for one substrate graph.
type State struct {
	g   *graph.Graph
	res []float64

	prices []float64
	// nodePrice aliases prices[0:NumNodes] conceptually; kept as a
	// separate dense slice for branch-free DP reads.
	nodePrice []float64
	epoch     uint64
	priceGen  uint64

	// trees[src] caches the Dijkstra tree from src under the current
	// prices; an entry with a stale epoch is recomputed into its own
	// buffers on the next query.
	trees []cachedTree

	viewPool       []*View
	viewTreeBuilds uint64
	arena          Arena

	// selfPaths memoizes the trivial src==dst paths (one per node):
	// they are immutable and end up shared across many embeddings.
	selfPaths []graph.Path
}

type cachedTree struct {
	t     *graph.ShortestPathTree
	epoch uint64
}

// New returns a State over g with the residual vector initialized to the
// element capacities and prices initialized to the element costs — the
// configuration every online engine starts from.
func New(g *graph.Graph) *State {
	pr := make([]float64, g.NumElements())
	for i := range pr {
		pr[i] = g.ElementCost(graph.ElementID(i))
	}
	return newState(g, pr)
}

// NewWithPrices returns a State over g with the given per-element prices
// (copied) and the residual vector initialized to the element capacities.
func NewWithPrices(g *graph.Graph, prices []float64) *State {
	return newState(g, append([]float64(nil), prices...))
}

func newState(g *graph.Graph, pr []float64) *State {
	s := &State{
		g:         g,
		res:       g.Capacities(),
		prices:    pr,
		nodePrice: make([]float64, g.NumNodes()),
		trees:     make([]cachedTree, g.NumNodes()),
		epoch:     1,
	}
	copy(s.nodePrice, pr[:g.NumNodes()])
	return s
}

// Graph returns the underlying substrate graph (read-only by convention).
func (s *State) Graph() *graph.Graph { return s.g }

// NumElements returns the size of the flat element space.
func (s *State) NumElements() int { return len(s.prices) }

// Epoch returns the current price epoch. It advances whenever a link
// price changes; cached trees from older epochs are recomputed on demand.
func (s *State) Epoch() uint64 { return s.epoch }

// PriceGen returns a generation counter that advances whenever ANY price
// (node or link) changes. Layers caching price-derived artifacts beyond
// path trees — e.g. the embedder's collocated-embedding cache — key their
// validity on it.
func (s *State) PriceGen() uint64 { return s.priceGen }

// ---- Prices ----

// Price returns the current per-CU price of element e.
func (s *State) Price(e graph.ElementID) float64 { return s.prices[e] }

// NodePrice returns the current per-CU price of node u.
func (s *State) NodePrice(u graph.NodeID) float64 { return s.nodePrice[u] }

// SetPrice overwrites the price of element e. A changed link price bumps
// the price epoch (lazily invalidating the path cache); node prices never
// do.
func (s *State) SetPrice(e graph.ElementID, p float64) {
	if s.prices[e] == p {
		return
	}
	s.prices[e] = p
	s.priceGen++
	if n, ok := s.g.ElementNode(e); ok {
		s.nodePrice[n] = p
		return
	}
	s.epoch++
}

// SetPrices replaces the whole price vector (copied). The price epoch is
// bumped once if any link price changed, however many moved, and not at
// all otherwise: re-pricing rounds that leave link weights untouched keep
// the path cache warm.
func (s *State) SetPrices(pr []float64) {
	if len(pr) != len(s.prices) {
		panic("substrate: SetPrices with wrong-length vector")
	}
	linkBase := s.g.NumNodes()
	nodesChanged := !slices.Equal(pr[:linkBase], s.prices[:linkBase])
	linksChanged := !slices.Equal(pr[linkBase:], s.prices[linkBase:])
	copy(s.prices, pr)
	copy(s.nodePrice, pr[:linkBase])
	if linksChanged {
		s.epoch++
	}
	if nodesChanged || linksChanged {
		s.priceGen++
	}
}

// ---- Residuals ----

// ResetResidual restores the residual vector to the element capacities,
// leaving prices and the (price-keyed) path cache untouched — engines run
// back-to-back over one State share a warm cache.
func (s *State) ResetResidual() { s.res = s.g.CapacitiesInto(s.res) }

// Fits reports whether demand d of embedding e fits the current residual.
func (s *State) Fits(e *vnet.Embedding, d float64) bool { return e.FitsResidual(s.res, d) }

// ResidualVec returns the live residual vector for read-only hot-path
// scans (sparse feasibility checks, preemption deficit computation).
// Callers must not mutate it — use Apply/Release — and must not retain it
// past the State's lifetime. Engine.ResidualView hands out the same
// live slice under the same rules.
func (s *State) ResidualVec() []float64 { return s.res }

// ScaleResidual multiplies every residual capacity by f. The serving
// layer partitions the substrate across engine shards with it: each
// shard's state starts at capacity/N so the shards' admissions cannot
// jointly oversubscribe a physical element. Prices and the path cache
// are unaffected.
func (s *State) ScaleResidual(f float64) {
	for i := range s.res {
		s.res[i] *= f
	}
}

// AddResidual adds the per-element capacities in add to the residual
// vector — the other half of the serving layer's re-partitioning: a
// shard donating capacity scales its residual down and the recipient
// adds the donated vector here. Prices and the path cache are
// unaffected, mirroring ScaleResidual.
func (s *State) AddResidual(add []float64) {
	for i, v := range add {
		s.res[i] += v
	}
}

// Apply subtracts demand d of embedding e from the residual vector.
func (s *State) Apply(e *vnet.Embedding, d float64) { e.Apply(s.res, d) }

// Release returns demand d of embedding e to the residual vector.
func (s *State) Release(e *vnet.Embedding, d float64) { e.Release(s.res, d) }

// ---- Shortest-path cache ----

// Tree returns the shortest-path tree rooted at src under the current
// prices, computing it on first use and caching it. A cached tree left
// stale by a link-price change is recomputed into its existing buffers
// by graph.DijkstraLinkWeightsInto. The returned tree is owned by the
// State; callers must not retain it across price changes.
func (s *State) Tree(src graph.NodeID) *graph.ShortestPathTree {
	ct := &s.trees[src]
	if ct.t == nil || ct.epoch != s.epoch {
		ct.t = s.g.DijkstraLinkWeightsInto(ct.t, src, s.prices[s.g.NumNodes():])
		ct.epoch = s.epoch
	}
	return ct.t
}

// ViewTreeBuilds reports how many shortest-path trees the State's
// exclusion views have built (one Dijkstra each) since the State was
// created — the work a View re-acquired under an unchanged excluded-link
// set and epoch does not repeat.
func (s *State) ViewTreeBuilds() uint64 { return s.viewTreeBuilds }

// Dist returns the price-weighted shortest distance from src to dst.
func (s *State) Dist(src, dst graph.NodeID) float64 { return s.Tree(src).Dist[dst] }

// DistRow returns the full distance row from src — Dist(src, ·) as a
// slice indexed by destination. Hot loops scanning many destinations per
// source index the row directly instead of paying a cache-epoch check per
// lookup. The row is owned by the State's cached tree: read-only, invalid
// after the next price change.
func (s *State) DistRow(src graph.NodeID) []float64 { return s.Tree(src).Dist }

// PathBetween returns the price-shortest path from src to dst; ok is
// false if dst is unreachable under finite link prices. src == dst yields
// the empty path.
func (s *State) PathBetween(src, dst graph.NodeID) (graph.Path, bool) {
	if src == dst {
		return s.selfPath(src), true
	}
	return s.Tree(src).PathTo(dst)
}

// selfPath returns the memoized trivial path at src. The returned path
// is shared and immutable.
func (s *State) selfPath(src graph.NodeID) graph.Path {
	if s.selfPaths == nil {
		s.selfPaths = make([]graph.Path, s.g.NumNodes())
	}
	if s.selfPaths[src].Nodes == nil {
		s.selfPaths[src] = graph.Path{Nodes: []graph.NodeID{src}}
	}
	return s.selfPaths[src]
}

// ---- Exclusion views ----

// View overlays an exclusion set on a State's prices: excluded links get
// +Inf path weight, excluded nodes +Inf placement price. Views hold their
// own per-link weight vector and lazily built shortest-path trees, whose
// buffers are recycled through the State's pool, so repeated branch-out
// retries allocate nothing in steady state. Release a View with Close
// when the query batch is done.
type View struct {
	st    *State
	excl  map[graph.ElementID]bool
	trees []viewTree
	// links is the sorted set of excluded link elements the trees of
	// generation gen were (or will be) built under; spare is the buffer the
	// next acquisition collects its own set into.
	links, spare []graph.ElementID
	gen          uint64
	// lw is the view's per-link weight vector: the State's link prices
	// with every link in links at +Inf, filled for generation lwGen at
	// link-price epoch lwEpoch (0, never a State epoch, until first use).
	lw             []float64
	lwGen, lwEpoch uint64
	pooled         bool
}

// viewTree is one view-private tree: valid for the view's current
// excluded-link set (gen) at the link-price epoch it was built under.
type viewTree struct {
	t     *graph.ShortestPathTree
	gen   uint64
	epoch uint64
}

// AcquireView returns a View over the State's prices with the given
// exclusion set (may be nil or empty — then the view is equivalent to the
// base State, but still uses view-private trees). Entries mapped to false
// exclude nothing.
//
// A View taken from the pool keeps the trees it already holds when excl
// excludes exactly the links its previous use did and the link-price
// Epoch has not moved since each tree was built; otherwise trees are
// rebuilt lazily into their existing buffers. The set of excluded links
// is copied at acquisition, so that comparison never reads a map the
// previous caller has since changed. The map itself is still referenced
// for node lookups (NodePrice): callers must not mutate it while the View
// is in use.
func (s *State) AcquireView(excl map[graph.ElementID]bool) *View {
	var v *View
	if n := len(s.viewPool); n > 0 {
		v = s.viewPool[n-1]
		s.viewPool = s.viewPool[:n-1]
	} else {
		v = &View{st: s, trees: make([]viewTree, s.g.NumNodes())}
	}
	links := v.spare[:0]
	for e, on := range excl {
		if on && !s.g.ElementIsNode(e) {
			links = append(links, e)
		}
	}
	slices.Sort(links)
	if slices.Equal(links, v.links) {
		v.spare = links
	} else {
		v.links, v.spare = links, v.links
		v.gen++
	}
	v.excl = excl
	v.pooled = false
	return v
}

// Close returns the View to its State's pool. The View must not be used
// afterwards; a double Close panics (it would put the View in the pool
// twice and silently hand one View to two later acquisitions).
func (v *View) Close() {
	if v.pooled {
		panic("substrate: View closed twice")
	}
	v.pooled = true
	v.excl = nil
	v.st.viewPool = append(v.st.viewPool, v)
}

// NodePrice returns the placement price of node u under the view: +Inf if
// u's element is excluded, the State's node price otherwise.
func (v *View) NodePrice(u graph.NodeID) float64 {
	if v.excl != nil && v.excl[v.st.g.NodeElement(u)] {
		return math.Inf(1)
	}
	return v.st.nodePrice[u]
}

// Tree returns the view's shortest-path tree rooted at src, computing it
// on first use per (excluded-link set, link-price epoch) and reusing the
// tree buffers across rebuilds.
func (v *View) Tree(src graph.NodeID) *graph.ShortestPathTree {
	vt := &v.trees[src]
	if vt.t == nil || vt.gen != v.gen || vt.epoch != v.st.epoch {
		vt.t = v.st.g.DijkstraLinkWeightsInto(vt.t, src, v.weights())
		vt.gen, vt.epoch = v.gen, v.st.epoch
		v.st.viewTreeBuilds++
	}
	return vt.t
}

// weights returns the view's per-link weight vector, refilling it from
// the State's link prices when the excluded-link set or the link-price
// epoch has moved since it was last filled.
func (v *View) weights() []float64 {
	if v.lwGen != v.gen || v.lwEpoch != v.st.epoch {
		linkBase := v.st.g.NumNodes()
		v.lw = append(v.lw[:0], v.st.prices[linkBase:]...)
		for _, e := range v.links {
			v.lw[int(e)-linkBase] = math.Inf(1)
		}
		v.lwGen, v.lwEpoch = v.gen, v.st.epoch
	}
	return v.lw
}

// Dist returns the shortest distance from src to dst avoiding excluded
// links.
func (v *View) Dist(src, dst graph.NodeID) float64 { return v.Tree(src).Dist[dst] }

// DistRow returns the view's full distance row from src; read-only,
// invalid after Close.
func (v *View) DistRow(src graph.NodeID) []float64 { return v.Tree(src).Dist }

// PathBetween returns the shortest src→dst path avoiding excluded links;
// ok is false if dst is unreachable. src == dst yields the empty path.
func (v *View) PathBetween(src, dst graph.NodeID) (graph.Path, bool) {
	if src == dst {
		return v.st.selfPath(src), true
	}
	return v.Tree(src).PathTo(dst)
}

// ---- Scratch arena ----

// ScratchArena returns the State's bump arena for transient per-query
// scratch (the embedder's DP tables). Callers Reset it at the start of a
// query and must not retain chunks past the query.
func (s *State) ScratchArena() *Arena { return &s.arena }
