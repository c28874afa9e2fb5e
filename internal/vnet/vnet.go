// Package vnet models the virtual networks (applications) of the VNE
// problem: rooted trees/chains of VNFs connected by virtual links, each
// element with a size β, plus the (in)efficiency coefficients η that encode
// placement preferences and hard exclusions (paper §II-A).
//
// Every application has a special root node θ representing the user; θ has
// size 0 and is pinned to the request's ingress substrate node.
package vnet

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/olive-vne/olive/internal/graph"
)

// Kind names an application topology family from the paper's evaluation
// (§IV-A): chain, two-branch tree, accelerator chain, GPU chain.
type Kind int

// Application topology families.
const (
	KindChain Kind = iota + 1
	KindTree
	KindAccelerator
	KindGPU
)

// String returns the family name used in figures ("Chain", "Tree", ...).
func (k Kind) String() string {
	switch k {
	case KindChain:
		return "Chain"
	case KindTree:
		return "Tree"
	case KindAccelerator:
		return "Acc"
	case KindGPU:
		return "GPU"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// UnmarshalText parses a family by its scenario name (chain, tree,
// accelerator, gpu), failing with the valid names. Kind has no
// MarshalText, so it still encodes as its number.
func (k *Kind) UnmarshalText(b []byte) error {
	switch string(b) {
	case "chain":
		*k = KindChain
	case "tree":
		*k = KindTree
	case "accelerator":
		*k = KindAccelerator
	case "gpu":
		*k = KindGPU
	default:
		return fmt.Errorf("unknown application kind %q (valid: chain, tree, accelerator, gpu)", b)
	}
	return nil
}

// VNFID indexes a VNF within an application; the root θ is always VNF 0.
type VNFID int

// Root is the VNFID of θ in every application.
const Root VNFID = 0

// VNF is a virtual network function.
type VNF struct {
	ID VNFID
	// Size is the resource requirement β per unit of demand.
	Size float64
	// GPU marks a VNF that must be placed on a dedicated GPU datacenter.
	GPU bool
}

// VLink is a virtual link between two VNFs.
type VLink struct {
	From VNFID
	To   VNFID
	// Size is the traffic requirement β per unit of demand.
	Size float64
}

// App is an application: a rooted tree of VNFs. VNF 0 is the root θ (the
// user's ingress point) with Size 0.
type App struct {
	Name string
	Kind Kind
	// VNFs holds all virtual nodes; VNFs[0] is θ.
	VNFs []VNF
	// Links holds the virtual links. For tree/chain applications,
	// Links[i].To is always a previously unseen VNF when traversed in
	// order, i.e. the links are listed parent-to-child in BFS order.
	Links []VLink
}

// FunctionalVNFs returns the number of VNFs excluding θ.
func (a *App) FunctionalVNFs() int { return len(a.VNFs) - 1 }

// TotalNodeSize sums β over all VNFs (θ contributes 0).
func (a *App) TotalNodeSize() float64 {
	var s float64
	for _, v := range a.VNFs {
		s += v.Size
	}
	return s
}

// TotalLinkSize sums β over all virtual links.
func (a *App) TotalLinkSize() float64 {
	var s float64
	for _, l := range a.Links {
		s += l.Size
	}
	return s
}

// Validate checks structural invariants: θ present with size 0, links form
// a tree rooted at θ listed parent-to-child, and positive element sizes.
func (a *App) Validate() error {
	if len(a.VNFs) < 2 {
		return errors.New("vnet: application needs θ plus at least one VNF")
	}
	if a.VNFs[0].Size != 0 {
		return fmt.Errorf("vnet: root θ must have size 0, has %g", a.VNFs[0].Size)
	}
	if len(a.Links) != len(a.VNFs)-1 {
		return fmt.Errorf("vnet: %d links for %d VNFs; a rooted tree needs exactly %d",
			len(a.Links), len(a.VNFs), len(a.VNFs)-1)
	}
	seen := make([]bool, len(a.VNFs))
	seen[Root] = true
	for i, l := range a.Links {
		if int(l.From) >= len(a.VNFs) || int(l.To) >= len(a.VNFs) || l.From < 0 || l.To < 0 {
			return fmt.Errorf("vnet: link %d endpoints out of range", i)
		}
		if !seen[l.From] {
			return fmt.Errorf("vnet: link %d parent %d not yet reached (links must be parent-to-child in order)", i, l.From)
		}
		if seen[l.To] {
			return fmt.Errorf("vnet: link %d child %d already reached (cycle or reconvergence)", i, l.To)
		}
		seen[l.To] = true
		if l.Size <= 0 {
			return fmt.Errorf("vnet: link %d has non-positive size %g", i, l.Size)
		}
	}
	for i, v := range a.VNFs[1:] {
		if v.Size <= 0 {
			return fmt.Errorf("vnet: VNF %d has non-positive size %g", i+1, v.Size)
		}
	}
	return nil
}

// Eff returns the (in)efficiency coefficient η for placing VNF q on
// substrate node n (Eq. 1). A return of +Inf forbids the placement: GPU
// VNFs may only run on GPU datacenters, and GPU datacenters accept only
// GPU VNFs (paper §IV "GPU scenario"). θ may be placed anywhere (its size
// is 0, so η is irrelevant but defined as 1).
func Eff(q VNF, n graph.Node) float64 {
	if q.ID == Root {
		return 1
	}
	if q.GPU != n.GPU {
		return math.Inf(1)
	}
	return 1
}

// LinkEff returns η for carrying a virtual link on a substrate link;
// always 1 in the paper's evaluation model.
func LinkEff(VLink, graph.Link) float64 { return 1 }

// Params configures random application generation per Table III.
type Params struct {
	// MinVNFs, MaxVNFs bound the number of functional VNFs (U(3,5)).
	MinVNFs, MaxVNFs int
	// SizeMean, SizeStd parameterize element sizes (N(50, 30²)),
	// truncated below at SizeMin.
	SizeMean, SizeStd, SizeMin float64
	// AccelReduction is the fractional size reduction applied to virtual
	// links downstream of an accelerator VNF (0.7 in the paper).
	AccelReduction float64
}

// DefaultParams returns the Table III application parameters.
func DefaultParams() Params {
	return Params{
		MinVNFs: 3, MaxVNFs: 5,
		SizeMean: 50, SizeStd: 30, SizeMin: 1,
		AccelReduction: 0.7,
	}
}

func (p Params) size(rng *rand.Rand) float64 {
	s := p.SizeMean + p.SizeStd*rng.NormFloat64()
	if s < p.SizeMin {
		s = p.SizeMin
	}
	return s
}

func (p Params) numVNFs(rng *rand.Rand) int {
	return p.MinVNFs + rng.IntN(p.MaxVNFs-p.MinVNFs+1)
}

// GenerateChain draws a chain application: θ → v1 → v2 → ... → vk.
func GenerateChain(name string, p Params, rng *rand.Rand) *App {
	k := p.numVNFs(rng)
	a := &App{Name: name, Kind: KindChain}
	a.VNFs = append(a.VNFs, VNF{ID: Root})
	for i := 1; i <= k; i++ {
		a.VNFs = append(a.VNFs, VNF{ID: VNFID(i), Size: p.size(rng)})
		a.Links = append(a.Links, VLink{From: VNFID(i - 1), To: VNFID(i), Size: p.size(rng)})
	}
	return a
}

// GenerateTree draws a two-branch tree: θ → v1, then v1 forks into two
// chains that together hold the remaining VNFs.
func GenerateTree(name string, p Params, rng *rand.Rand) *App {
	k := p.numVNFs(rng)
	if k < 3 {
		k = 3 // a two-branch tree needs a fork node plus two children
	}
	a := &App{Name: name, Kind: KindTree}
	a.VNFs = append(a.VNFs, VNF{ID: Root})
	a.VNFs = append(a.VNFs, VNF{ID: 1, Size: p.size(rng)})
	a.Links = append(a.Links, VLink{From: Root, To: 1, Size: p.size(rng)})
	// Split the remaining k-1 VNFs across two branches as evenly as the
	// draw allows, each branch getting at least one.
	left := 1 + rng.IntN(k-2)
	branch := func(count int) {
		parent := VNFID(1)
		for i := 0; i < count; i++ {
			id := VNFID(len(a.VNFs))
			a.VNFs = append(a.VNFs, VNF{ID: id, Size: p.size(rng)})
			a.Links = append(a.Links, VLink{From: parent, To: id, Size: p.size(rng)})
			parent = id
		}
	}
	branch(left)
	branch(k - 1 - left)
	return a
}

// GenerateAccelerator draws an accelerator chain: a chain with one
// accelerator VNF that shrinks every downstream virtual link by
// AccelReduction (70% in the paper, after [33]).
func GenerateAccelerator(name string, p Params, rng *rand.Rand) *App {
	a := GenerateChain(name, p, rng)
	a.Kind = KindAccelerator
	k := len(a.VNFs) - 1 // functional VNFs
	// The accelerator sits strictly before the chain's end so that the
	// "consequent virtual link" it shrinks always exists.
	accel := 1 + rng.IntN(k-1)
	for i := range a.Links {
		// Links[i] joins VNF i to VNF i+1; it is downstream of the
		// accelerator when its source is at or past the accelerator.
		if int(a.Links[i].From) >= accel {
			a.Links[i].Size *= 1 - p.AccelReduction
		}
	}
	return a
}

// GenerateGPU draws a GPU chain: a chain with one randomly selected VNF
// that must be placed on a dedicated GPU datacenter (Fig. 10 scenario).
func GenerateGPU(name string, p Params, rng *rand.Rand) *App {
	a := GenerateChain(name, p, rng)
	a.Kind = KindGPU
	k := len(a.VNFs) - 1
	gpu := 1 + rng.IntN(k)
	a.VNFs[gpu].GPU = true
	return a
}

// Generate draws one application of the given kind.
func Generate(kind Kind, name string, p Params, rng *rand.Rand) *App {
	switch kind {
	case KindChain:
		return GenerateChain(name, p, rng)
	case KindTree:
		return GenerateTree(name, p, rng)
	case KindAccelerator:
		return GenerateAccelerator(name, p, rng)
	case KindGPU:
		return GenerateGPU(name, p, rng)
	default:
		panic(fmt.Sprintf("vnet: unknown application kind %d", kind))
	}
}

// DefaultMix draws the paper's standard application set (Table III): two
// chains, one tree, one accelerator, selected with equal probability at
// request time.
func DefaultMix(p Params, rng *rand.Rand) []*App {
	return []*App{
		GenerateChain("chain-1", p, rng),
		GenerateChain("chain-2", p, rng),
		GenerateTree("tree", p, rng),
		GenerateAccelerator("accelerator", p, rng),
	}
}

// UniformKindSet draws four applications of a single kind, used by the
// per-application-type sensitivity experiment (Fig. 9) and the GPU
// experiment (Fig. 10).
func UniformKindSet(kind Kind, p Params, rng *rand.Rand) []*App {
	apps := make([]*App, 4)
	for i := range apps {
		apps[i] = Generate(kind, fmt.Sprintf("%s-%d", kind, i+1), p, rng)
	}
	return apps
}
