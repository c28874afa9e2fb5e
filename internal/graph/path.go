package graph

import "math"

// Path is a substrate path: an ordered list of link IDs joining consecutive
// nodes. An empty path is valid and denotes staying at a single node.
type Path struct {
	// Nodes lists the visited nodes in order; len(Nodes) == len(Links)+1
	// for non-empty paths. For the empty path it holds the single node.
	Nodes []NodeID
	// Links lists the traversed link IDs in order.
	Links []LinkID
	// Cost is the sum of link weights along the path under the weights
	// used to compute it.
	Cost float64
}

// Len returns the number of links in the path (0 for the empty path).
func (p Path) Len() int { return len(p.Links) }

// Src returns the first node of the path.
func (p Path) Src() NodeID { return p.Nodes[0] }

// Dst returns the last node of the path.
func (p Path) Dst() NodeID { return p.Nodes[len(p.Nodes)-1] }

type pqItem struct {
	node NodeID
	dist float64
}

// priorityQueue is a binary min-heap of pqItems ordered by dist. The sift
// procedures mirror container/heap exactly (same comparisons, same swap
// order), so replacing the boxed heap.Interface implementation changed no
// pop order — ties between equal distances resolve identically, keeping
// shortest-path trees (and everything derived from them) bit-identical.
// The concrete element type avoids one interface{} allocation per push
// and pop, which dominated the allocation profile of hot Dijkstra loops.
type priorityQueue []pqItem

func (q *priorityQueue) push(it pqItem) {
	*q = append(*q, it)
	q.up(len(*q) - 1)
}

func (q *priorityQueue) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	q.down(0, n)
	it := h[n]
	*q = h[:n]
	return it
}

func (q priorityQueue) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (q priorityQueue) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && q[j2].dist < q[j1].dist {
			j = j2
		}
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
}

// ShortestPathTree holds single-source shortest path results.
type ShortestPathTree struct {
	Source NodeID
	// Dist[n] is the distance from Source to n, +Inf if unreachable.
	Dist []float64
	// prevLink[n] is the link used to reach n, -1 at the source or for
	// unreachable nodes.
	prevLink []LinkID
	g        *Graph
	// pq retains the priority-queue backing array across
	// DijkstraLinkWeightsInto recomputations of this tree.
	pq priorityQueue
}

// DijkstraLinkWeightsInto computes single-source shortest paths from src
// under the dense per-link weight vector lw (lw[lid] ≥ 0, +Inf to forbid
// a link), reusing t's internal slices when t is non-nil and sized for
// this graph, and returns the (possibly reallocated) tree; pass a nil t
// for a fresh one. It is the graph layer's only shortest-path kernel: the
// substrate layer's price-keyed path cache and its exclusion views both
// recompute trees through it and stay allocation-free after warm-up. The
// result does not depend on t's previous contents: the scan order and the
// tie-breaking of equal-distance pops are fixed by the CSR adjacency.
//
//olive:hotpath allocation-free after warm-up; the price-driven tree recompute path
func (g *Graph) DijkstraLinkWeightsInto(t *ShortestPathTree, src NodeID, lw []float64) *ShortestPathTree {
	n := len(g.nodes)
	if t == nil || cap(t.Dist) < n || cap(t.prevLink) < n {
		t = &ShortestPathTree{
			Dist:     make([]float64, n),
			prevLink: make([]LinkID, n),
		}
	}
	t.Source = src
	t.g = g
	t.Dist = t.Dist[:n]
	t.prevLink = t.prevLink[:n]
	for i := range t.Dist {
		t.Dist[i] = math.Inf(1)
		t.prevLink[i] = -1
	}
	t.Dist[src] = 0
	adj := g.adjacency()
	pq := t.pq[:0]
	pq.push(pqItem{node: src, dist: 0})
	for len(pq) > 0 {
		it := pq.pop()
		if it.dist > t.Dist[it.node] {
			continue // stale entry
		}
		// The CSR walk visits incident links in AddLink order, so
		// equal-distance relaxations always resolve the same way.
		for p, end := adj.off[it.node], adj.off[it.node+1]; p < end; p++ {
			lid := adj.link[p]
			wl := lw[lid]
			if math.IsInf(wl, 1) {
				continue
			}
			m := adj.other[p]
			if d := it.dist + wl; d < t.Dist[m] {
				t.Dist[m] = d
				t.prevLink[m] = lid
				pq.push(pqItem{node: m, dist: d})
			}
		}
	}
	t.pq = pq
	return t
}

// ParentLink returns the link the tree reaches n by: -1 at the source and
// for unreachable nodes.
func (t *ShortestPathTree) ParentLink(n NodeID) LinkID { return t.prevLink[n] }

// PathTo reconstructs the shortest path from the tree's source to dst.
// ok is false if dst is unreachable.
//
//olive:hotpath exact-size reconstruction, no append growth
func (t *ShortestPathTree) PathTo(dst NodeID) (Path, bool) {
	if math.IsInf(t.Dist[dst], 1) {
		return Path{}, false
	}
	// Walk once to count hops, then fill two exact-size slices back to
	// front — no append growth in this hot reconstruction path.
	hops := 0
	for n := dst; n != t.Source; hops++ {
		n = t.g.links[t.prevLink[n]].Other(n)
	}
	links := make([]LinkID, hops)
	nodes := make([]NodeID, hops+1)
	nodes[hops] = dst
	for n, i := dst, hops-1; i >= 0; i-- {
		lid := t.prevLink[n]
		links[i] = lid
		n = t.g.links[lid].Other(n)
		nodes[i] = n
	}
	return Path{Nodes: nodes, Links: links, Cost: t.Dist[dst]}, true
}
