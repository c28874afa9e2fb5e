package core

import (
	"errors"
	"fmt"
	"sort"

	"github.com/olive-vne/olive/internal/embedder"
	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/plan"
	"github.com/olive-vne/olive/internal/vnet"
	"github.com/olive-vne/olive/internal/workload"
)

// SlotOff is the SLOTOFF baseline (§IV-A): at every time slot it solves a
// fresh offline VNE instance over the currently active requests (the
// PRANOS-style aggregated LP of the plan package) and re-allocates all of
// them; requests it cannot fit are rejected and never reconsidered. Unlike
// OLIVE, active requests may receive a completely different allocation in
// every slot — an inherent advantage the paper acknowledges.
type SlotOff struct {
	g      *graph.Graph
	apps   []*vnet.App
	opts   plan.Options
	solver *plan.Solver
	alive  []workload.Request
	// Alloc maps request ID to its current-slot embedding.
	Alloc map[int]*vnet.Embedding
	// resScratch is the per-slot residual snapshot, reused across Steps.
	resScratch []float64
}

// SlotOffOptions tunes the per-slot LP. Pricing rounds are kept small:
// SLOTOFF solves one LP per slot, and the paper only requires it to be a
// strong (near-optimal) reference. The shared Solver's solution-support
// column pool matters here: pooled columns are ordinary candidate
// embeddings for the *current* slot's instance (each slot's LP still
// optimizes only that slot), so carrying them across slots moves two
// truncated pricing rounds much closer to the per-slot optimum the
// paper's CPLEX-backed SLOTOFF represents — without them this baseline
// re-seeded from scratch each slot and was systematically weaker than
// its definition intends. Each slot's first master solve is cold; only
// its pricing rounds warm-start, each from the round before.
func SlotOffOptions() plan.Options {
	o := plan.DefaultOptions()
	o.MaxPricingRounds = 2
	o.InitialCandidates = 3
	return o
}

// NewSlotOffOn builds the baseline sharing an existing cost-price oracle
// (and its warm substrate state) for per-slot column seeding — the
// simulation harness passes each cell's shared oracle. SLOTOFF never
// mutates the oracle's prices or residuals; it keeps its own residual
// scratch for rounding.
func NewSlotOffOn(oracle *embedder.Oracle, apps []*vnet.App, opts plan.Options) (*SlotOff, error) {
	if oracle == nil || len(apps) == 0 {
		return nil, errors.New("core: SLOTOFF needs a substrate and applications")
	}
	return &SlotOff{
		g: oracle.State().Graph(), apps: apps, opts: opts,
		// One plan solver for the whole run: per-slot re-optimizations
		// share its warm substrate state (path cache, collocated
		// candidate memos, pricing buffers) instead of re-deriving
		// prices from scratch every slot.
		solver: plan.NewSolverOn(oracle, apps),
		Alloc:  make(map[int]*vnet.Embedding),
	}, nil
}

// SlotResult reports one slot's outcome.
type SlotResult struct {
	// AcceptedNew / RejectedNew partition this slot's arrivals.
	AcceptedNew, RejectedNew []workload.Request
	// Dropped lists previously accepted requests that no longer fit
	// (counted as rejections, like OLIVE's preemptions).
	Dropped []workload.Request
	// ResourceCost is this slot's Σ load·cost over the substrate.
	ResourceCost float64
}

// Step processes slot t: drops departures, solves the offline instance
// over (alive ∪ arrivals), rounds the fractional solution into unsplittable
// per-request allocations, and returns the outcome.
func (s *SlotOff) Step(t int, arrivals []workload.Request) (SlotResult, error) {
	var res SlotResult
	// Drop departures.
	alive := s.alive[:0]
	for _, r := range s.alive {
		if r.Departs() > t {
			alive = append(alive, r)
		}
	}
	s.alive = alive

	// Candidate set: previously accepted requests first (they get
	// priority in rounding), then this slot's arrivals.
	work := make([]workload.Request, 0, len(s.alive)+len(arrivals))
	work = append(work, s.alive...)
	newFrom := len(s.alive)
	for _, r := range arrivals {
		if r.Arrive != t {
			return res, fmt.Errorf("core: SLOTOFF fed request %d arriving at %d during slot %d", r.ID, r.Arrive, t)
		}
		work = append(work, r)
	}
	if len(work) == 0 {
		s.Alloc = make(map[int]*vnet.Embedding)
		return res, nil
	}

	// Aggregate actual active demand into classes and solve the
	// offline LP (OFF-VNE over R(t), as in §IV-A).
	type key struct {
		app     int
		ingress graph.NodeID
	}
	demand := make(map[key]float64)
	for _, r := range work {
		demand[key{r.App, r.Ingress}] += r.Demand
	}
	classes := make([]plan.Class, 0, len(demand))
	for k, d := range demand {
		classes = append(classes, plan.Class{App: k.app, Ingress: k.ingress, Demand: d})
	}
	sort.Slice(classes, func(i, j int) bool {
		if classes[i].Ingress != classes[j].Ingress {
			return classes[i].Ingress < classes[j].Ingress
		}
		return classes[i].App < classes[j].App
	})
	p, err := s.solver.Build(classes, s.opts)
	if err != nil {
		return res, fmt.Errorf("core: SLOTOFF slot %d: %w", t, err)
	}

	// Rounding: walk requests (alive first, then arrivals, each by
	// descending demand within its group), assigning each to the
	// fullest share of its class that fits both the share's remaining
	// planned volume and the substrate residual.
	sort.SliceStable(work[:newFrom], func(i, j int) bool { return work[i].Demand > work[j].Demand })
	sort.SliceStable(work[newFrom:], func(i, j int) bool {
		a, b := work[newFrom+i], work[newFrom+j]
		return a.Demand > b.Demand
	})

	shareRes := make(map[int][]float64)
	s.resScratch = s.g.CapacitiesInto(s.resScratch)
	residual := s.resScratch
	newAlloc := make(map[int]*vnet.Embedding, len(work))
	var nextAlive []workload.Request

	assign := func(r workload.Request) bool {
		ci, ok := p.LookupIndex(r.App, r.Ingress)
		if !ok {
			return false
		}
		cp := &p.Classes[ci]
		rs, ok := shareRes[ci]
		if !ok {
			rs = make([]float64, len(cp.Shares))
			for j, sh := range cp.Shares {
				rs[j] = sh.Fraction * cp.Class.Demand
			}
			shareRes[ci] = rs
		}
		best := -1
		for j := range cp.Shares {
			if rs[j]+shareSlack < r.Demand {
				continue
			}
			if !cp.Shares[j].E.FitsResidual(residual, r.Demand) {
				continue
			}
			if best < 0 || rs[j] > rs[best] {
				best = j
			}
		}
		if best < 0 {
			return false
		}
		rs[best] -= r.Demand
		cp.Shares[best].E.Apply(residual, r.Demand)
		newAlloc[r.ID] = cp.Shares[best].E
		return true
	}

	for i, r := range work {
		isNew := i >= newFrom
		if assign(r) {
			if isNew {
				res.AcceptedNew = append(res.AcceptedNew, r)
			}
			nextAlive = append(nextAlive, r)
			continue
		}
		if isNew {
			res.RejectedNew = append(res.RejectedNew, r)
		} else {
			res.Dropped = append(res.Dropped, r)
		}
	}
	s.alive = nextAlive
	s.Alloc = newAlloc

	for _, r := range s.alive {
		res.ResourceCost += newAlloc[r.ID].Cost(r.Demand)
	}
	return res, nil
}

// shareSlack lets rounding overflow a share's planned volume slightly: the
// LP is fractional while requests are unsplittable, so strict bucketing
// would strand capacity that the substrate check (FitsResidual) already
// guards. One mean request (≈10 demand units) of slack per share recovers
// most of the rounding loss without violating feasibility.
const shareSlack = 10.0

// ActiveCount returns the number of currently embedded requests.
func (s *SlotOff) ActiveCount() int { return len(s.alive) }
