package vnet

import (
	"fmt"
	"math"

	"github.com/olive-vne/olive/internal/graph"
)

// ElementUse is one entry of a sparse per-unit-demand resource usage
// vector: Amount CU consumed on substrate element Elem per unit of request
// demand.
type ElementUse struct {
	Elem   graph.ElementID
	Amount float64
}

// Embedding is an integral (unsplittable) mapping of an application onto a
// substrate: every VNF to a node, every virtual link to a path. Per-unit
// usage and cost are precomputed so the online engine can test feasibility
// in O(|support|).
//
// An Embedding is immutable once NewEmbedding returns it: nothing may
// write its maps, paths or usage afterwards. One Embedding is shared
// between requests — by the embedder's collocated-candidate memo, by
// FULLG's search memo (core.Engine) and by plan shares — and between the
// engine's active set and the caller that received it.
type Embedding struct {
	App *App
	// NodeMap[i] is the substrate node hosting VNF i; NodeMap[0] is the
	// ingress (θ's pin).
	NodeMap []graph.NodeID
	// PathMap[i] is the substrate path carrying App.Links[i]. Virtual
	// links between VNFs collocated on one node use an empty path and
	// consume no link capacity.
	PathMap []graph.Path

	// use is the per-unit-demand usage vector, sparse, with one entry
	// per distinct substrate element, sorted by element ID.
	use []ElementUse
	// unitCost is the resource cost per unit of demand (Σ use·cost).
	unitCost float64
}

// NewEmbedding builds an embedding and precomputes its usage and cost.
// It returns an error if the mapping is structurally invalid (wrong arity,
// forbidden placement, path endpoints not matching the node map).
func NewEmbedding(g *graph.Graph, app *App, nodeMap []graph.NodeID, pathMap []graph.Path) (*Embedding, error) {
	if len(nodeMap) != len(app.VNFs) {
		return nil, fmt.Errorf("vnet: node map has %d entries for %d VNFs", len(nodeMap), len(app.VNFs))
	}
	if len(pathMap) != len(app.Links) {
		return nil, fmt.Errorf("vnet: path map has %d entries for %d virtual links", len(pathMap), len(app.Links))
	}
	// Accumulate the sparse usage vector in a small stack-backed buffer:
	// supports are tiny (≤ ~15 elements), so a linear-scan merge beats a
	// map — and spends zero allocations in the common case.
	var stack [24]ElementUse
	acc := stack[:0]
	for i, v := range app.VNFs {
		n := g.Node(nodeMap[i])
		eta := Eff(v, n)
		if math.IsInf(eta, 1) {
			return nil, fmt.Errorf("vnet: VNF %d (gpu=%v) may not be placed on node %q (gpu=%v)", i, v.GPU, n.Name, n.GPU)
		}
		if v.Size == 0 {
			continue
		}
		acc = addUse(acc, g.NodeElement(nodeMap[i]), v.Size*eta)
	}
	for i, vl := range app.Links {
		p := pathMap[i]
		from, to := nodeMap[vl.From], nodeMap[vl.To]
		if p.Len() == 0 {
			if from != to {
				return nil, fmt.Errorf("vnet: virtual link %d maps to empty path but endpoints differ (%d,%d)", i, from, to)
			}
			continue
		}
		if p.Src() != from || p.Dst() != to {
			return nil, fmt.Errorf("vnet: virtual link %d path runs %d→%d, want %d→%d", i, p.Src(), p.Dst(), from, to)
		}
		for _, lid := range p.Links {
			acc = addUse(acc, g.LinkElement(lid), vl.Size*LinkEff(vl, g.Link(lid)))
		}
	}
	e := &Embedding{App: app, NodeMap: nodeMap, PathMap: pathMap}
	e.use = make([]ElementUse, len(acc))
	copy(e.use, acc)
	sortUses(e.use)
	for _, u := range e.use {
		e.unitCost += u.Amount * g.ElementCost(u.Elem)
	}
	return e, nil
}

// addUse merges one contribution into the accumulating usage vector,
// summing amounts for an element already present — the same
// one-entry-per-element invariant the map accumulation kept, with the
// same per-element addition order (loop order).
func addUse(acc []ElementUse, elem graph.ElementID, amt float64) []ElementUse {
	for i := range acc {
		if acc[i].Elem == elem {
			acc[i].Amount += amt
			return acc
		}
	}
	return append(acc, ElementUse{Elem: elem, Amount: amt})
}

func sortUses(us []ElementUse) {
	// Insertion sort: supports are tiny (≤ ~15 elements).
	for i := 1; i < len(us); i++ {
		for j := i; j > 0 && us[j].Elem < us[j-1].Elem; j-- {
			us[j], us[j-1] = us[j-1], us[j]
		}
	}
}

// UnitUse returns the per-unit-demand usage vector, sorted by element.
// Callers must not mutate it.
func (e *Embedding) UnitUse() []ElementUse { return e.use }

// UnitCost returns the resource cost incurred per unit of demand.
func (e *Embedding) UnitCost() float64 { return e.unitCost }

// Cost returns the resource cost of hosting demand d on this embedding
// for one time slot.
func (e *Embedding) Cost(d float64) float64 { return e.unitCost * d }

// FitsResidual reports whether demand d fits within the residual capacity
// vector res (indexed by ElementID), i.e. Eq. 18 of the paper.
func (e *Embedding) FitsResidual(res []float64, d float64) bool {
	_, over := e.FirstViolated(res, d)
	return !over
}

// FirstViolated returns the lowest element on which demand d does not fit
// within res, the one test FitsResidual makes of every element: over by
// more than capEps. ok is false when d fits.
func (e *Embedding) FirstViolated(res []float64, d float64) (graph.ElementID, bool) {
	for _, u := range e.use {
		if u.Amount*d > res[u.Elem]+capEps {
			return u.Elem, true
		}
	}
	return -1, false
}

// Apply subtracts demand d of this embedding from res in place.
func (e *Embedding) Apply(res []float64, d float64) {
	for _, u := range e.use {
		res[u.Elem] -= u.Amount * d
	}
}

// Release returns demand d of this embedding to res in place.
func (e *Embedding) Release(res []float64, d float64) {
	for _, u := range e.use {
		res[u.Elem] += u.Amount * d
	}
}

// Collocated reports whether all functional VNFs share one substrate node.
func (e *Embedding) Collocated() bool {
	if len(e.NodeMap) <= 1 {
		return true
	}
	first := e.NodeMap[1]
	for _, n := range e.NodeMap[2:] {
		if n != first {
			return false
		}
	}
	return true
}

// capEps absorbs floating-point noise in capacity comparisons: a request
// that exceeds residual capacity by less than capEps CU is considered to
// fit. All capacities in the evaluation are ≥ 10³ CU, so this is ~12
// orders of magnitude below real contention.
const capEps = 1e-7
