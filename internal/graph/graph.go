// Package graph models the physical substrate network of the VNE problem:
// a connected graph of datacenters (nodes) and inter-datacenter links, each
// carrying a capacity and a per-capacity-unit usage cost. It also provides
// the shortest-path kernel (Dijkstra over a per-link weight vector) that
// the planning and embedding layers are built on.
//
// Substrate elements — nodes and links — share a single flat index space
// (see ElementID) so that loads, capacities and residuals can be handled as
// plain vectors by the upper layers.
package graph

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Tier classifies a substrate node within the three-tier mobile access
// network architecture used throughout the paper's evaluation (§IV-A).
type Tier int

// Tiers, from the network edge inward. Numeric order matters: capacities
// grow by the inter-tier ratio from TierEdge to TierCore.
const (
	TierEdge Tier = iota + 1
	TierTransport
	TierCore
)

// String returns the lower-case tier name.
func (t Tier) String() string {
	switch t {
	case TierEdge:
		return "edge"
	case TierTransport:
		return "transport"
	case TierCore:
		return "core"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// NodeID identifies a substrate node; IDs are dense indices 0..N-1.
type NodeID int

// LinkID identifies a substrate link; IDs are dense indices 0..L-1.
type LinkID int

// Node is a substrate datacenter.
type Node struct {
	ID   NodeID
	Name string
	Tier Tier
	// Cap is the node capacity in capacity units (CU).
	Cap float64
	// Cost is the usage cost per CU consumed on this node.
	Cost float64
	// GPU marks a dedicated GPU datacenter. GPU datacenters host GPU
	// VNFs exclusively; non-GPU VNFs are excluded via the inefficiency
	// coefficients (paper §II-A, §IV "GPU scenario").
	GPU bool
	// X, Y are optional layout coordinates (used only for rendering).
	X, Y float64
}

// Link is an undirected substrate link between two datacenters.
type Link struct {
	ID   LinkID
	From NodeID
	To   NodeID
	// Cap is the link capacity in CU.
	Cap float64
	// Cost is the usage cost per CU of traffic carried.
	Cost float64
}

// Other returns the endpoint of l opposite to n.
func (l Link) Other(n NodeID) NodeID {
	if l.From == n {
		return l.To
	}
	return l.From
}

// ElementID indexes a substrate element (node or link) in the flat element
// space of a Graph: nodes occupy [0, NumNodes) and links occupy
// [NumNodes, NumNodes+NumLinks).
type ElementID int

// csrAdj is the compressed-sparse-row adjacency of a graph, its only
// adjacency: the incident links of node n are link[off[n]:off[n+1]], with
// other holding the opposite endpoints in parallel, so traversals walk
// contiguous memory. It is packed straight from the link list in link-ID
// order, so each node's links appear in construction (AddLink) order — a
// self-loop twice in a row — which fixes Dijkstra's relaxation order and
// with it every tie-break downstream. A csrAdj is immutable once
// published.
type csrAdj struct {
	off   []int32
	link  []LinkID
	other []NodeID
}

// Graph is an undirected substrate network. The zero value is an empty
// graph ready for AddNode/AddLink.
type Graph struct {
	nodes []Node
	links []Link
	// csr caches the packed adjacency, built lazily and invalidated by
	// AddNode/AddLink. Concurrent builders race benignly (identical
	// results, last write wins).
	csr atomic.Pointer[csrAdj]
}

// New returns an empty substrate graph.
func New() *Graph { return &Graph{} }

// AddNode appends a node and returns its ID. The ID and adjacency are
// managed by the graph; any ID set on n is overwritten.
func (g *Graph) AddNode(n Node) NodeID {
	n.ID = NodeID(len(g.nodes))
	g.nodes = append(g.nodes, n)
	g.csr.Store(nil)
	return n.ID
}

// AddLink appends an undirected link between from and to and returns its
// ID. It panics if either endpoint is out of range, since that is a
// programming error in topology construction.
func (g *Graph) AddLink(from, to NodeID, cap, cost float64) LinkID {
	if int(from) >= len(g.nodes) || int(to) >= len(g.nodes) || from < 0 || to < 0 {
		panic(fmt.Sprintf("graph: link endpoints (%d,%d) out of range [0,%d)", from, to, len(g.nodes)))
	}
	id := LinkID(len(g.links))
	g.links = append(g.links, Link{ID: id, From: from, To: to, Cap: cap, Cost: cost})
	g.csr.Store(nil)
	return id
}

// adjacency returns the packed CSR adjacency, building it on first use
// with a counting sort of the link list: degrees, then offsets, then one
// pass in link-ID order that places each link at both endpoints.
func (g *Graph) adjacency() *csrAdj {
	if c := g.csr.Load(); c != nil {
		return c
	}
	n := len(g.nodes)
	c := &csrAdj{
		off:   make([]int32, n+1),
		link:  make([]LinkID, 2*len(g.links)),
		other: make([]NodeID, 2*len(g.links)),
	}
	for _, l := range g.links {
		c.off[l.From+1]++
		c.off[l.To+1]++
	}
	for i := 0; i < n; i++ {
		c.off[i+1] += c.off[i]
	}
	next := append([]int32(nil), c.off[:n]...)
	for _, l := range g.links {
		p := next[l.From]
		c.link[p], c.other[p] = l.ID, l.To
		next[l.From]++
		p = next[l.To]
		c.link[p], c.other[p] = l.ID, l.From
		next[l.To]++
	}
	g.csr.Store(c)
	return c
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks returns the number of links.
func (g *Graph) NumLinks() int { return len(g.links) }

// NumElements returns the size of the flat element space (nodes + links).
func (g *Graph) NumElements() int { return len(g.nodes) + len(g.links) }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// Link returns the link with the given ID.
func (g *Graph) Link(id LinkID) Link { return g.links[id] }

// Nodes returns the node slice. The slice must not be mutated by callers;
// use SetNodeCap and friends to modify.
func (g *Graph) Nodes() []Node { return g.nodes }

// Links returns the link slice. The slice must not be mutated by callers.
func (g *Graph) Links() []Link { return g.links }

// Incident returns the IDs of links incident to node n, in insertion
// order — a view into the packed CSR adjacency. The returned slice must
// not be mutated.
func (g *Graph) Incident(n NodeID) []LinkID {
	c := g.adjacency()
	return c.link[c.off[n]:c.off[n+1]:c.off[n+1]]
}

// SetNodeCap overwrites the capacity of node id.
func (g *Graph) SetNodeCap(id NodeID, cap float64) { g.nodes[id].Cap = cap }

// SetNodeCost overwrites the per-CU cost of node id.
func (g *Graph) SetNodeCost(id NodeID, cost float64) { g.nodes[id].Cost = cost }

// SetNodeGPU marks or unmarks node id as a dedicated GPU datacenter.
func (g *Graph) SetNodeGPU(id NodeID, gpu bool) { g.nodes[id].GPU = gpu }

// SetLinkCap overwrites the capacity of link id.
func (g *Graph) SetLinkCap(id LinkID, cap float64) { g.links[id].Cap = cap }

// NodeElement maps a node ID into the flat element space.
func (g *Graph) NodeElement(id NodeID) ElementID { return ElementID(id) }

// LinkElement maps a link ID into the flat element space.
func (g *Graph) LinkElement(id LinkID) ElementID {
	return ElementID(len(g.nodes) + int(id))
}

// ElementIsNode reports whether element e is a node.
func (g *Graph) ElementIsNode(e ElementID) bool { return int(e) < len(g.nodes) }

// ElementNode returns the node behind element e; ok is false for links.
func (g *Graph) ElementNode(e ElementID) (NodeID, bool) {
	if g.ElementIsNode(e) {
		return NodeID(e), true
	}
	return 0, false
}

// ElementLink returns the link behind element e; ok is false for nodes.
func (g *Graph) ElementLink(e ElementID) (LinkID, bool) {
	if g.ElementIsNode(e) {
		return 0, false
	}
	return LinkID(int(e) - len(g.nodes)), true
}

// ElementCap returns the capacity of element e.
func (g *Graph) ElementCap(e ElementID) float64 {
	if n, ok := g.ElementNode(e); ok {
		return g.nodes[n].Cap
	}
	l, _ := g.ElementLink(e)
	return g.links[l].Cap
}

// ElementCost returns the per-CU cost of element e.
func (g *Graph) ElementCost(e ElementID) float64 {
	if n, ok := g.ElementNode(e); ok {
		return g.nodes[n].Cost
	}
	l, _ := g.ElementLink(e)
	return g.links[l].Cost
}

// ElementName returns a human-readable name for element e.
func (g *Graph) ElementName(e ElementID) string {
	if n, ok := g.ElementNode(e); ok {
		return g.nodes[n].Name
	}
	l, _ := g.ElementLink(e)
	lk := g.links[l]
	return fmt.Sprintf("%s--%s", g.nodes[lk.From].Name, g.nodes[lk.To].Name)
}

// Capacities returns a fresh vector over the flat element space holding
// every element's capacity. Upper layers copy this to track residuals.
func (g *Graph) Capacities() []float64 {
	return g.CapacitiesInto(nil)
}

// CapacitiesInto fills dst with every element's capacity, reusing dst's
// backing array when it is large enough, and returns the filled vector.
// Per-slot residual snapshots (SLOTOFF) use it to avoid one allocation per
// slot.
func (g *Graph) CapacitiesInto(dst []float64) []float64 {
	if cap(dst) < g.NumElements() {
		dst = make([]float64, g.NumElements())
	}
	dst = dst[:g.NumElements()]
	for i, n := range g.nodes {
		dst[i] = n.Cap
	}
	for i, l := range g.links {
		dst[len(g.nodes)+i] = l.Cap
	}
	return dst
}

// NodesByTier returns the IDs of all nodes in tier t, in ID order.
func (g *Graph) NodesByTier(t Tier) []NodeID {
	var ids []NodeID
	for _, n := range g.nodes {
		if n.Tier == t {
			ids = append(ids, n.ID)
		}
	}
	return ids
}

// EdgeNodes returns the IDs of all edge-tier nodes (request ingress points).
func (g *Graph) EdgeNodes() []NodeID { return g.NodesByTier(TierEdge) }

// ErrDisconnected is returned by Validate for graphs that are not connected.
var ErrDisconnected = errors.New("graph: not connected")

// Validate checks structural invariants: at least one node, connectivity,
// strictly positive capacities, and non-negative costs.
func (g *Graph) Validate() error {
	if len(g.nodes) == 0 {
		return errors.New("graph: no nodes")
	}
	if !g.Connected() {
		return ErrDisconnected
	}
	for _, n := range g.nodes {
		if n.Cap <= 0 {
			return fmt.Errorf("graph: node %q has non-positive capacity %g", n.Name, n.Cap)
		}
		if n.Cost < 0 {
			return fmt.Errorf("graph: node %q has negative cost %g", n.Name, n.Cost)
		}
	}
	for _, l := range g.links {
		if l.Cap <= 0 {
			return fmt.Errorf("graph: link %d has non-positive capacity %g", l.ID, l.Cap)
		}
		if l.Cost < 0 {
			return fmt.Errorf("graph: link %d has negative cost %g", l.ID, l.Cost)
		}
		if l.From == l.To {
			return fmt.Errorf("graph: link %d is a self-loop at node %d", l.ID, l.From)
		}
	}
	return nil
}

// Connected reports whether every node is reachable from node 0.
func (g *Graph) Connected() bool {
	if len(g.nodes) == 0 {
		return false
	}
	adj := g.adjacency()
	seen := make([]bool, len(g.nodes))
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range adj.other[adj.off[n]:adj.off[n+1]] {
			if !seen[m] {
				seen[m] = true
				count++
				stack = append(stack, m)
			}
		}
	}
	return count == len(g.nodes)
}

// Degree returns the number of links incident to n (a self-loop counts
// twice).
func (g *Graph) Degree(n NodeID) int { return len(g.Incident(n)) }

// Clone returns a deep copy of the graph. Mutating the clone (capacities,
// GPU flags, added links) leaves the original untouched; each graph packs
// its own adjacency on first use.
func (g *Graph) Clone() *Graph {
	return &Graph{
		nodes: append([]Node(nil), g.nodes...),
		links: append([]Link(nil), g.links...),
	}
}
