// Package core implements the online half of the paper's contribution:
// the OLIVE algorithm (Algorithm 2) — plan-guided online embedding with
// capacity borrowing, preemption of borrowed allocations, and a collocated
// greedy fallback — together with the evaluated baselines QUICKG (OLIVE
// with an empty plan), FULLG (exact per-request embedding) and SLOTOFF
// (per-slot offline re-optimization, §IV-A).
//
// PREEMPT (Alg. 2 l. 35–38) does not scan the active set. An engine with a
// plan keeps a borrower index: per substrate element, the active
// non-planned allocations whose embedding uses it, maintained on ALLOCATE,
// on every release (departure, ReleaseByID, preemption) and rebuilt on
// SwapPlan, which turns every active request into a borrower. A preemption
// scores only the borrowers listed under its deficit elements. That is
// bit-identical to scoring every non-planned request in ID order: a
// borrower off the deficit elements has relief exactly zero, zero relief is
// never chosen, and among the others the max-relief pick breaks ties on the
// lowest request ID with each relief summed in UnitUse order — so the cost
// of a request no longer depends on how many requests are active. Engines
// without a plan never preempt and never build the index.
package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/olive-vne/olive/internal/embedder"
	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/plan"
	"github.com/olive-vne/olive/internal/substrate"
	"github.com/olive-vne/olive/internal/vnet"
	"github.com/olive-vne/olive/internal/workload"
)

// Algorithm names one of the evaluated algorithms.
type Algorithm string

// The four algorithms of the paper's evaluation.
const (
	AlgoOLIVE   Algorithm = "OLIVE"
	AlgoQuickG  Algorithm = "QUICKG"
	AlgoFullG   Algorithm = "FULLG"
	AlgoSlotOff Algorithm = "SLOTOFF"
)

// UnmarshalText parses an algorithm name, failing with the valid names.
func (a *Algorithm) UnmarshalText(b []byte) error {
	switch v := Algorithm(b); v {
	case AlgoOLIVE, AlgoQuickG, AlgoFullG, AlgoSlotOff:
		*a = v
		return nil
	}
	return fmt.Errorf("unknown algorithm %q (valid: %s, %s, %s, %s)",
		b, AlgoOLIVE, AlgoQuickG, AlgoFullG, AlgoSlotOff)
}

// Options configures an Engine.
type Options struct {
	// Plan is the PLAN-VNE embedding plan. A nil or empty plan turns
	// the engine into the QUICKG baseline (pure greedy).
	Plan *plan.Plan
	// Exact switches the fallback embedder from the collocated greedy
	// (GREEDYEMBED, §III-C) to the exact per-request DP — the FULLG
	// baseline. FULLG omits the collocation restriction.
	Exact bool
	// DisableBorrowing turns off the partial-fit mechanism (Alg. 2
	// line 27): requests that do not fully fit their class's residual
	// plan go straight to the greedy fallback. Ablation only.
	DisableBorrowing bool
	// DisablePreemption turns off PREEMPT (Alg. 2 line 35). Ablation
	// only.
	DisablePreemption bool
}

// defaultExactRetries scales the budget of FULLG's capacity branch-out
// (retries with saturated elements excluded): the search expands at most
// 4 × defaultExactRetries branch-and-bound nodes per request.
const defaultExactRetries = 6

// Outcome reports the processing result for one request.
type Outcome struct {
	// Accepted is true if the request was embedded.
	Accepted bool
	// Planned is true if the allocation came fully out of the residual
	// plan (a "guaranteed" allocation in Fig. 12's terms). Borrowed
	// (partial-fit) and greedy allocations have Planned == false.
	Planned bool
	// Emb is the chosen embedding (nil when rejected). It may be shared
	// — with a plan share, with other requests, with the embedder's
	// collocated-candidate memo or with FULLG's search memo — and must be
	// treated as immutable.
	Emb *vnet.Embedding
	// Preempted lists request IDs preempted to make room.
	Preempted []int
}

// Engine processes online requests against a substrate, optionally guided
// by a plan (OLIVE) — Algorithm 2 of the paper.
//
// All residual and price bookkeeping lives in a substrate.State — the
// residual vector Res(S,t,x) of Eq. 16, the per-element prices, and the
// lazy shortest-path cache the embedding oracle queries. Engines built
// with NewEngineOn share one State (and its warm caches) sequentially;
// the engine itself holds no private residual copies.
type Engine struct {
	g    *graph.Graph
	apps []*vnet.App
	opts Options

	st       *substrate.State
	oracle   *embedder.Oracle
	shareRes [][]float64 // residual plan per class per share, Eq. 17
	// classOf resolves a request's plan class without hashing:
	// classOf[app·n + ingress], n the substrate's node count, is the
	// class's index in the plan's Classes plus one, 0 for none. It is
	// sized from the engine's apps and substrate, never from the plan
	// (whose classes may name any ingress), and nil without a plan.
	classOf []int32

	// recs is the record table the departure calendar's entries index
	// into. A record's index is named by exactly one calendar entry from
	// ALLOCATE until that entry pops, and is on freeRecs otherwise. ids
	// maps each active request's ID to its record.
	recs []*activeReq
	cal  calendar
	ids  idIndex
	// now is the slot of the last StartSlot, 0 before the first: every
	// accepted request departs after it.
	now int
	// maxID is the highest request ID ever made active. Traces number
	// requests in arrival order, so an arrival above it is new without an
	// index lookup.
	maxID int

	cost float64 // Σ emb.Cost(demand) over the active allocations

	// borrowers is the per-substrate-element index of the active
	// non-planned allocations (R_DONE \ R_PLAN), indexed by ElementID:
	// every borrower is listed once under each element of its embedding,
	// so PREEMPT reads its candidates off the deficit elements' lists
	// instead of scanning the active set. Nil for an engine without a
	// plan (QUICKG, FULLG), which never preempts.
	borrowers []borrowerList

	// Preemption scratch, reused across Process calls. preDeficit is the
	// dense per-element deficit (zero = no deficit), all-zero between
	// calls; preTouched lists the elements a call set. Allocated with the
	// index.
	preDeficit []float64
	preTouched []graph.ElementID
	preCands   []*activeReq
	preChosen  []*activeReq
	preEpoch   uint64
	preStats   PreemptStats

	// freeRecs lists the records free for the next arrival, so
	// steady-state churn allocates none. A record is freed when its
	// departure entry pops, not when it is released: one released early
	// (ReleaseByID, preemption) is a zombie, with emb == nil, until then,
	// so an entry always names the allocation that pushed it.
	freeRecs []int32

	// FULLG's branch-and-bound scratch: pooled search nodes, the nodes of
	// the search in progress, its open list and the buffers nodeKey
	// builds a memo key in.
	bbFree, bbUsed, bbOpen []*bbNode
	bbKey                  []byte
	bbBans                 []embedder.Ban
	bbExcl                 []graph.ElementID
	// The search memo (see exactEmbed), valid while the State's price
	// generation is bbGen; FULLG engines only. bbRoots holds the root
	// entries by app·|V| + ingress, bbMemo the others by key; bbSize
	// counts both. Entries and links come from the chunks bbEnts and
	// bbLinks.
	bbRoots []*bbEntry
	bbMemo  map[string]*bbEntry
	bbSize  int
	bbEnts  []bbEntry
	bbLinks []bbLink
	bbGen   uint64
	bbStats bbMemoStats
}

type activeReq struct {
	req workload.Request
	emb *vnet.Embedding // nil once released (a zombie, or free)
	// mark is the last index walk (Engine.preEpoch) that collected this
	// record, so that a walk takes it once however often it is listed.
	mark     uint64
	classIdx int32 // -1 for non-planned
	shareIdx int32
	planned  bool
}

// borrows reports whether ar is an active non-planned allocation whose
// embedding uses element x — what an entry of x's borrower list claims.
func (ar *activeReq) borrows(x graph.ElementID) bool {
	if ar.emb == nil || ar.planned {
		return false
	}
	for _, u := range ar.emb.UnitUse() {
		if u.Elem == x {
			return true
		}
	}
	return false
}

// borrowerList holds the borrowers of one substrate element x. Deletion is
// lazy. Nothing is unlinked when a borrower is released: an entry counts
// only while its record borrows(x), and a walk takes each record once, so
// an entry left behind by a released request is skipped — also after its
// record was recycled, whatever it then holds (a planned request, a
// borrower elsewhere, or a borrower of x again, which merely lists it
// twice). dead counts those left-behind entries; the list is compacted as
// soon as they are the majority, so its length stays within twice its live
// entries (plus one) at O(1) amortized per release. The backing array,
// like the engine's other buffers, keeps its high-water capacity —
// SwapPlan refills it without allocating.
type borrowerList struct {
	refs []*activeReq
	dead int
}

// PreemptStats counts PREEMPT's work since the engine was built — plain
// integers, a pure function of the request sequence.
type PreemptStats struct {
	// Calls is the number of PREEMPT invocations (a planned allocation
	// found its substrate capacity borrowed).
	Calls int
	// Failed counts the calls that could not clear the deficit and
	// preempted nothing.
	Failed int
	// CandidatesScored is the number of relief evaluations: every greedy
	// round scores each remaining borrower of a deficit element once.
	CandidatesScored int
	// Victims is the number of requests preempted.
	Victims int
}

// NewEngine builds an engine over a fresh substrate state (residuals at
// full capacity, prices = element costs).
func NewEngine(g *graph.Graph, apps []*vnet.App, opts Options) (*Engine, error) {
	if g == nil {
		return nil, errors.New("core: engine needs a substrate and applications")
	}
	return NewEngineOn(embedder.ForState(substrate.New(g)), apps, opts)
}

// NewEngineOn builds an engine over an existing substrate state, viewed
// through the given oracle. The state's residual vector is reset to full
// capacities; its price vector (which must be the element costs for the
// engine's cost accounting to match the paper) and its warm shortest-path
// and collocated-embedding caches are kept — back-to-back algorithm runs
// over one simulation cell share them.
func NewEngineOn(oracle *embedder.Oracle, apps []*vnet.App, opts Options) (*Engine, error) {
	if oracle == nil || len(apps) == 0 {
		return nil, errors.New("core: engine needs a substrate and applications")
	}
	st := oracle.State()
	st.ResetResidual()
	e := &Engine{
		g:      st.Graph(),
		apps:   apps,
		opts:   opts,
		st:     st,
		oracle: oracle,
		cal:    newCalendar(),
		maxID:  math.MinInt,
	}
	if opts.Exact {
		e.bbRoots = make([]*bbEntry, len(apps)*e.g.NumNodes())
		e.bbMemo, e.bbGen = make(map[string]*bbEntry), st.PriceGen()
	}
	e.shareRes = planResiduals(opts.Plan)
	e.classOf = e.classTable(opts.Plan)
	e.resetBorrowerIndex()
	return e, nil
}

// classTable returns p's class table over the engine's apps and substrate
// (see Engine.classOf); nil for an empty plan. A class whose app or
// ingress is outside the table can match no request and is left out. Of
// two classes with one key the later wins, as in Plan.LookupIndex.
func (e *Engine) classTable(p *plan.Plan) []int32 {
	if p.Empty() {
		return nil
	}
	apps, n := len(e.apps), e.g.NumNodes()
	tab := make([]int32, apps*n)
	for i, cp := range p.Classes {
		a, v := cp.Class.App, int(cp.Class.Ingress)
		if a >= 0 && a < apps && v >= 0 && v < n {
			tab[a*n+v] = int32(i + 1)
		}
	}
	return tab
}

// classIndex returns the index in the engine's plan of the class serving
// (app, ingress), or -1 when there is none.
func (e *Engine) classIndex(app int, ingress graph.NodeID) int {
	n := e.g.NumNodes()
	if e.classOf == nil || app < 0 || app >= len(e.apps) || ingress < 0 || int(ingress) >= n {
		return -1
	}
	return int(e.classOf[app*n+int(ingress)]) - 1
}

// planResiduals returns the full residual plan (Eq. 17) of p: each
// share's planned demand. Nil for an empty plan.
func planResiduals(p *plan.Plan) [][]float64 {
	if p.Empty() {
		return nil
	}
	res := make([][]float64, len(p.Classes))
	for i, cp := range p.Classes {
		rs := make([]float64, len(cp.Shares))
		for j, s := range cp.Shares {
			rs[j] = s.Fraction * cp.Class.Demand
		}
		res[i] = rs
	}
	return res
}

// Algorithm returns which named algorithm this engine realizes.
func (e *Engine) Algorithm() Algorithm {
	switch {
	case !e.opts.Plan.Empty():
		return AlgoOLIVE
	case e.opts.Exact:
		return AlgoFullG
	default:
		return AlgoQuickG
	}
}

// ResidualView returns the engine's live residual vector without
// copying, for internal hot paths that read it every request. The slice
// aliases engine state: callers must not mutate it, and must not hold
// it across Process/StartSlot calls expecting a snapshot — it reflects
// every subsequent allocation. Anything that needs an independent copy
// clones it.
func (e *Engine) ResidualView() []float64 { return e.st.ResidualVec() }

// State returns the substrate state this engine operates on.
func (e *Engine) State() *substrate.State { return e.st }

// ActiveCount returns the number of currently embedded requests.
func (e *Engine) ActiveCount() int { return e.ids.n }

// ActiveCost returns Σ emb.Cost(demand) over the currently embedded
// requests, the per-slot resource cost of Eq. 3. ALLOCATE adds to it and
// every release (departure, preemption, ReleaseByID) subtracts, departures
// in calendar order: the value is a pure function of the call sequence.
func (e *Engine) ActiveCost() float64 { return e.cost }

// StartSlot advances time to slot t, releasing every request that departs
// at or before t (Alg. 2 line 5) — in slot order, and within a slot in
// acceptance order. Each due entry names its record, which is released
// unless it already was (a zombie), and then freed. The clock never runs
// backward: a t at or before the current slot releases nothing.
//
//olive:hotpath once per slot; one bucket step per departure, no lookup
func (e *Engine) StartSlot(t int) {
	if t <= e.now {
		return
	}
	e.now = t
	for {
		ri := e.cal.pop(t)
		if ri < 0 {
			return
		}
		if ar := e.recs[ri]; ar.emb != nil {
			e.release(ar)
		}
		e.freeRecs = append(e.freeRecs, ri)
	}
}

func (e *Engine) release(ar *activeReq) {
	// Dropping the embedding pointer is what kills the record's borrower
	// index entries and marks it a zombie, and it keeps the record from
	// pinning the released embedding; req stays readable because preempt
	// reports IDs right after releasing.
	emb := ar.emb
	ar.emb = nil
	e.st.Release(emb, ar.req.Demand)
	e.cost -= emb.Cost(ar.req.Demand)
	if ar.planned {
		e.shareRes[ar.classIdx][ar.shareIdx] += ar.req.Demand
	} else if e.borrowers != nil {
		e.retireBorrower(emb)
	}
	e.ids.remove(ar.req.ID)
}

// ReleaseByID releases the active request with the given ID before its
// scheduled departure, returning its resources (and, for planned
// allocations, its plan share) immediately. It reports whether the
// request was active. The serving layer uses it for client-initiated
// teardown. The request's record stays a zombie until its departure entry
// pops, and only then is it reused. An ID that is released early and then
// Processed again gets a record and an entry of its own, and departs at
// its own entry: within that slot it is released in its own entry's push
// order, not the stale one's.
func (e *Engine) ReleaseByID(id int) bool {
	ri, ok := e.ids.get(id)
	if !ok {
		return false
	}
	e.release(e.recs[ri])
	return true
}

// Process handles one arriving request (Alg. 2 lines 6–16) and returns
// the outcome. Requests must be fed in arrival order, interleaved with
// StartSlot calls. A request whose app is unknown, whose ingress is not a
// substrate node, whose demand is not finite and positive, whose duration
// is below one slot, whose departure slot overflows an int or is not after
// the current slot (see StartSlot), or whose ID is still active, is an
// error and leaves the engine untouched.
//
//olive:hotpath per-request decision entry point; only Outcome.Preempted may allocate
func (e *Engine) Process(r workload.Request) (Outcome, error) {
	if r.App < 0 || r.App >= len(e.apps) {
		return Outcome{}, errUnknownApp(r, len(e.apps))
	}
	if r.Ingress < 0 || int(r.Ingress) >= e.g.NumNodes() {
		return Outcome{}, errBadIngress(r, e.g.NumNodes())
	}
	if !(r.Demand > 0) || math.IsInf(r.Demand, 1) {
		// A NaN demand fits everywhere and poisons the residuals; a
		// negative one raises them above capacity.
		return Outcome{}, errBadDemand(r)
	}
	if r.Duration < 1 || r.Departs() <= e.now {
		// A request that departs at or before it arrives, or by the
		// current slot, would hold its capacity until the next StartSlot.
		// A departure slot past math.MaxInt wraps around to a negative
		// one, before the clock, which never runs below zero.
		return Outcome{}, errBadDuration(r, e.now)
	}
	if r.ID <= e.maxID {
		if _, dup := e.ids.get(r.ID); dup {
			// Overwriting the record would strand the first allocation:
			// its capacity could never be released (nor its index entries).
			return Outcome{}, errDuplicateID(r.ID)
		}
	}
	var out Outcome

	emb, planned, classIdx, shareIdx := e.planEmbed(r)

	if planned && !e.st.Fits(emb, r.Demand) {
		// Borrowed capacity blocks a planned allocation: preempt
		// non-planned requests to free it (Alg. 2 lines 8–9).
		if !e.opts.DisablePreemption {
			out.Preempted = e.preempt(emb, r.Demand)
		}
		if !e.st.Fits(emb, r.Demand) {
			// Preemption could not clear the way; treat the plan
			// route as unavailable.
			emb, planned = nil, false
		}
	}

	if emb == nil {
		emb = e.greedyEmbed(r)
		planned = false
	}

	if emb == nil || !e.st.Fits(emb, r.Demand) {
		return out, nil // rejected (Alg. 2 line 15)
	}

	e.allocate(r, emb, planned, classIdx, shareIdx)
	out.Accepted = true
	out.Planned = planned
	out.Emb = emb
	return out, nil
}

// Error construction lives outside the annotated hot path (fmt allocates).
func errUnknownApp(r workload.Request, apps int) error {
	return fmt.Errorf("core: request %d references app %d of %d", r.ID, r.App, apps)
}

func errBadIngress(r workload.Request, nodes int) error {
	return fmt.Errorf("core: request %d has ingress %d outside [0,%d)", r.ID, r.Ingress, nodes)
}

func errBadDemand(r workload.Request) error {
	return fmt.Errorf("core: request %d has demand %g, want finite and positive", r.ID, r.Demand)
}

func errBadDuration(r workload.Request, now int) error {
	return fmt.Errorf("core: request %d arrives at %d for %d slots, want at least one slot and a departure after slot %d within an int", r.ID, r.Arrive, r.Duration, now)
}

func errDuplicateID(id int) error {
	return fmt.Errorf("core: request %d is still active", id)
}

// allocate implements ALLOCATE (Alg. 2 lines 18–22): charge the substrate
// and, for a planned allocation, the residual plan; record the request as
// active — and, under a plan, a non-planned one as a borrower.
func (e *Engine) allocate(r workload.Request, emb *vnet.Embedding, planned bool, classIdx, shareIdx int) {
	e.st.Apply(emb, r.Demand)
	e.cost += emb.Cost(r.Demand)
	var ri int32
	if n := len(e.freeRecs); n > 0 {
		ri = e.freeRecs[n-1]
		e.freeRecs = e.freeRecs[:n-1]
	} else {
		ri = int32(len(e.recs))
		e.recs = append(e.recs, new(activeReq))
	}
	ar := e.recs[ri]
	*ar = activeReq{req: r, emb: emb, planned: planned, classIdx: -1, shareIdx: -1}
	if planned {
		ar.classIdx, ar.shareIdx = int32(classIdx), int32(shareIdx)
		e.shareRes[classIdx][shareIdx] -= r.Demand
	} else if e.borrowers != nil {
		e.indexBorrower(ar)
	}
	e.ids.put(r.ID, ri)
	e.maxID = max(e.maxID, r.ID)
	e.cal.push(ri, r.Departs())
}

// planEmbed implements PLANEMBED (Alg. 2 lines 23–30): full fit in the
// residual plan ⇒ planned; otherwise a partial fit "borrows" plan capacity
// (planned=false). Returns a nil embedding when the plan offers nothing.
func (e *Engine) planEmbed(r workload.Request) (emb *vnet.Embedding, planned bool, classIdx, shareIdx int) {
	ci := e.classIndex(r.App, r.Ingress)
	if ci < 0 {
		return nil, false, -1, -1
	}
	cp := &e.opts.Plan.Classes[ci]
	rs := e.shareRes[ci]

	// Full fit: among shares with residual ≥ d, prefer one whose
	// embedding also fits the substrate right now (avoids needless
	// preemption); fall back to the fullest share.
	bestFit, bestAny := -1, -1
	for j := range cp.Shares {
		if rs[j] < r.Demand {
			continue
		}
		if bestAny < 0 || rs[j] > rs[bestAny] {
			bestAny = j
		}
		if e.st.Fits(cp.Shares[j].E, r.Demand) {
			if bestFit < 0 || rs[j] > rs[bestFit] {
				bestFit = j
			}
		}
	}
	if bestFit >= 0 {
		return cp.Shares[bestFit].E, true, ci, bestFit
	}
	if bestAny >= 0 {
		return cp.Shares[bestAny].E, true, ci, bestAny
	}

	// Partial fit (borrow): any share with positive residual whose
	// embedding fits the substrate for the full demand (Alg. 2
	// line 27: α·x̂ ≤ Res(y) and x̂ ≤ Res(S)).
	if !e.opts.DisableBorrowing {
		best := -1
		for j := range cp.Shares {
			if rs[j] <= 0 {
				continue
			}
			if !e.st.Fits(cp.Shares[j].E, r.Demand) {
				continue
			}
			if best < 0 || rs[j] > rs[best] {
				best = j
			}
		}
		if best >= 0 {
			return cp.Shares[best].E, false, -1, -1
		}
	}
	return nil, false, -1, -1
}

// preempt implements PREEMPT (Alg. 2 lines 35–38): reject active
// non-planned requests until the needed embedding fits, choosing at each
// step the request that frees the most of the remaining deficit (ties to
// the lowest request ID). Returns the preempted request IDs (empty if
// preemption cannot help, in which case nothing is preempted).
//
// Candidates come from the borrower index — the borrowers of the deficit
// elements — not from the whole active set. Any other borrower has relief
// exactly zero (a sum over no elements) and a zero relief is never chosen,
// so victims, their order and every float are those of a scan over all
// active non-planned requests in ID order.
//
//olive:hotpath scratch-backed; only the returned ID slice allocates
func (e *Engine) preempt(emb *vnet.Embedding, d float64) []int {
	e.preStats.Calls++
	remaining := e.preDeficit
	touched := e.preTouched[:0]
	res := e.st.ResidualVec()
	for _, u := range emb.UnitUse() {
		if need := u.Amount*d - res[u.Elem]; need > 0 {
			remaining[u.Elem] = need
			touched = append(touched, u.Elem)
		}
	}
	e.preTouched = touched
	if len(touched) == 0 {
		return nil
	}
	// Candidates: the borrowers of the deficit elements, each once.
	e.preEpoch++
	cands := e.preCands[:0]
	for _, el := range touched {
		for _, ar := range e.borrowers[el].refs {
			if ar.mark != e.preEpoch && ar.borrows(el) {
				ar.mark = e.preEpoch
				cands = append(cands, ar)
			}
		}
	}
	e.preCands = cands

	// Greedy max-relief selection. The relief sum runs in UnitUse order.
	chosen := e.preChosen[:0]
	left, open := len(cands), len(touched)
	for open > 0 {
		e.preStats.CandidatesScored += left
		best, bestRelief := -1, 0.0
		for i, ar := range cands {
			if ar == nil {
				continue
			}
			var relief float64
			for _, u := range ar.emb.UnitUse() {
				if need := remaining[u.Elem]; need > 0 {
					rel := u.Amount * ar.req.Demand
					if rel > need {
						rel = need
					}
					relief += rel
				}
			}
			if relief > bestRelief || (best >= 0 && relief == bestRelief && ar.req.ID < cands[best].req.ID) {
				bestRelief, best = relief, i
			}
		}
		if best < 0 {
			break // preemption cannot clear the deficit
		}
		ar := cands[best]
		cands[best] = nil
		left--
		chosen = append(chosen, ar)
		// Subtract the chosen request's relief in place; elements its
		// embedding does not touch keep their deficit.
		for _, u := range ar.emb.UnitUse() {
			if need := remaining[u.Elem]; need > 0 {
				rel := u.Amount * ar.req.Demand
				if need > rel {
					remaining[u.Elem] = need - rel
				} else {
					remaining[u.Elem] = 0
					open--
				}
			}
		}
	}
	e.preChosen = chosen

	var ids []int
	if open == 0 {
		ids = e.evict(chosen)
	} else {
		e.preStats.Failed++ // nothing is preempted
	}
	// Leave the scratch as found: deficits zero, and no retained pointer
	// pinning a released request (or its embedding) until the next call.
	for _, el := range touched {
		remaining[el] = 0
	}
	clear(cands)
	clear(chosen)
	return ids
}

// evict releases the chosen victims in selection order and returns their
// IDs — the one allocation of a successful PREEMPT.
func (e *Engine) evict(victims []*activeReq) []int {
	ids := make([]int, 0, len(victims))
	for _, ar := range victims {
		e.release(ar)
		ids = append(ids, ar.req.ID)
	}
	e.preStats.Victims += len(ids)
	return ids
}

// greedyEmbed implements GREEDYEMBED (Alg. 2 lines 31–34): the cheapest
// feasible collocated embedding — or, for FULLG, the exact min-cost
// embedding with iterative exclusion of saturated elements.
func (e *Engine) greedyEmbed(r workload.Request) *vnet.Embedding {
	app := e.apps[r.App]
	if !e.opts.Exact {
		emb, _, ok := e.oracle.BestCollocated(app, r.Ingress, e.st.ResidualVec(), r.Demand)
		if !ok {
			return nil
		}
		return emb
	}
	return e.exactEmbed(app, r)
}

// bbMemoCap bounds the engine's search memo: a memo that holds this many
// entries is cleared whole before the next one goes in. One pass of the
// repository benchmark's FULLG workload meets about 1,390 distinct nodes.
const bbMemoCap = 4096

// bbChunk is the number of memo entries, and of memo links, the engine
// allocates at a time.
const bbChunk = 128

// bbEntry is what the search memo knows about one node key: the price of
// the node's table (+Inf: infeasible, as a failed solve), once a node with
// the key has been popped the embedding its table encodes (emb; nil before
// the first pop, bbNoEmbedding when Embedding found none), and the links
// to the entries of the children branched from such a node.
type bbEntry struct {
	price float64
	emb   *vnet.Embedding
	links *bbLink
}

// bbNoEmbedding is the emb of a popped entry whose table yielded none.
var bbNoEmbedding = new(vnet.Embedding)

// bbLink leads from a memo entry to the entry of the child that adds
// delta (see bbDelta) to its key; next is the entry's next link.
type bbLink struct {
	delta uint64
	child *bbEntry
	next  *bbLink
}

// bbDelta packs the one change a child adds to its parent's key: ban b
// (b.V above θ) as b.V<<32 | b.U, excluded element elem as elem, so the
// two never meet (VNF, node and element IDs fit 32 bits).
func bbDelta(b embedder.Ban, elem graph.ElementID) uint64 {
	if b.V != vnet.Root {
		return uint64(b.V)<<32 | uint64(uint32(b.U))
	}
	return uint64(uint32(elem))
}

// bbMemoStats counts the search memo's traffic since the engine was built.
type bbMemoStats struct {
	// hits and misses count node keys looked up in the memo; linkHits
	// counts the hits found by a link from the parent's entry.
	hits, misses, linkHits int
	// embHits counts popped nodes whose embedding the memo held.
	embHits int
	// chained counts the misses whose parent was a hit without a table,
	// so that solving them re-derived the parent's first.
	chained int
}

// bbNode is one branch-and-bound search node: its memo entry, and the
// parent it was branched from with the one delta it adds — a ban (ban.V
// above θ) or an excluded element (elem). Its key, the sorted bans and
// excluded elements along its parent chain, is built only when the parent's
// entry has no link for the delta. Its table is solved only when needed:
// at once for a key the memo missed, on demand for a hit. Nodes are pooled
// by the engine.
type bbNode struct {
	parent *bbNode
	ban    embedder.Ban
	elem   graph.ElementID
	ent    *bbEntry
	solved bool
	tab    embedder.Table
}

// exactEmbed implements FULLG's per-request exact embedding as best-first
// branch and bound. The capacity-ignoring DP is an admissible lower bound
// (bans only raise cost), so the first feasible embedding popped is
// cost-optimal within the explored branching. Branching on an overloaded
// node is complete: any feasible embedding must move at least one of the
// VNFs the relaxation co-located there, and a child is created per such
// move. Branching on an overloaded link excludes the link wholesale,
// which approximates path re-routing (DESIGN.md §3). The search budget is
// 4 × defaultExactRetries = 24 expansions, each of which may solve several
// children.
//
// A node's table, and so its price and its embedding, is a pure function
// of its key — (app, ingress, bans, excluded elements) — and of the
// State's prices, which FULLG never moves. The engine remembers each key's
// price and feasibility and, once popped, its embedding (bbEntry) while
// State.PriceGen stands still, so a node whose key the memo holds is
// pushed and popped without a table. Lookups follow links first: a root
// finds its entry by (app, ingress) in a slice, and a child by its delta
// among the links of its parent's entry. Only a child the links miss
// builds its key and looks it up in a map, which finds the entry of a key
// met along another path; either way the parent's entry then links to it.
// Only a miss needs a table: it is derived from its parent's, after
// re-deriving, root first, every ancestor on the node's own search path
// that was a hit and so has none. The root's relaxation shares the
// oracle's memoized table; a child that bans one more (VNF, node) pair
// recomputes only the entries the ban can change (embedder.Oracle.SolveBan),
// and a child that excludes a link only the entries whose chosen path in
// the State's shortest-path tree crosses an excluded link, and those above
// them that chose a changed entry (embedder.Oracle.SolveExclude). Its
// rescans read distances through a pooled substrate view, which keeps its
// trees while siblings exclude the same links. Only popped nodes are
// turned into Embeddings.
//
// Every decision is the one a search without the memo makes: each derived
// table is bit-identical to a fresh fill under the same bans and
// exclusions, whatever path derived it, so a remembered price or
// embedding is the one this node's own derivation would give; and the
// open list, its tie-breaking, the budget and FirstViolated against the
// current residuals run unchanged. A link answers exactly the lookups the
// map would (see clearMemo), so the tables derived are those of a memo
// without links.
func (e *Engine) exactEmbed(app *vnet.App, r workload.Request) *vnet.Embedding {
	if gen := e.st.PriceGen(); gen != e.bbGen {
		e.clearMemo()
		e.bbGen = gen
	}
	emb := e.branchAndBound(app, r)
	for _, n := range e.bbUsed {
		n.tab.Reset()
		n.parent, n.ent, n.solved = nil, nil, false
	}
	e.bbFree = append(e.bbFree, e.bbUsed...)
	clear(e.bbUsed)
	e.bbUsed = e.bbUsed[:0]
	return emb
}

// clearMemo forgets every remembered node: the map, the root index and
// the entry count go, and new entries and links come from new chunks, so
// the old ones are left only to the search in progress. Its nodes' entries
// lose their links, so that a link answers only a lookup the map would:
// every entry reachable from a root or by a link recorded since the clear
// is in the map under its key.
func (e *Engine) clearMemo() {
	clear(e.bbMemo)
	clear(e.bbRoots)
	e.bbEnts, e.bbLinks, e.bbSize = nil, nil, 0
	for _, n := range e.bbUsed {
		if n.ent != nil {
			n.ent.links = nil
		}
	}
}

// newBBNode takes a search node from the pool; exactEmbed returns every
// node of the search to it.
func (e *Engine) newBBNode() *bbNode {
	var n *bbNode
	if k := len(e.bbFree); k > 0 {
		n = e.bbFree[k-1]
		e.bbFree = e.bbFree[:k-1]
	} else {
		n = new(bbNode)
	}
	e.bbUsed = append(e.bbUsed, n)
	return n
}

// branchAndBound is exactEmbed's search; it takes every node it solves
// from newBBNode.
func (e *Engine) branchAndBound(app *vnet.App, r workload.Request) *vnet.Embedding {
	root := e.newBBNode()
	if !e.lookup(app, r, root) {
		return nil
	}
	open := append(e.bbOpen[:0], root)
	var found *vnet.Embedding
	for budget := defaultExactRetries * 4; budget > 0 && len(open) > 0; {
		// Pop the lowest-bound node (lists stay tiny; linear scan).
		best := 0
		for i := range open {
			if open[i].ent.price < open[best].ent.price {
				best = i
			}
		}
		n := open[best]
		open = append(open[:best], open[best+1:]...)
		ent := n.ent
		if ent.emb != nil {
			e.bbStats.embHits++
		} else {
			e.solveNode(app, r, n)
			if ent.emb, _ = e.oracle.Embedding(&n.tab); ent.emb == nil {
				ent.emb = bbNoEmbedding
			}
		}
		emb := ent.emb
		if emb == bbNoEmbedding {
			// A finite table always yields an embedding; were it not to,
			// the node is dropped as a failed solve would have been,
			// without spending an expansion.
			continue
		}
		budget--

		// Accept a fitting embedding, or branch on the first element it
		// overloads: the one test Fits makes.
		violated, over := emb.FirstViolated(e.st.ResidualVec(), r.Demand)
		if !over {
			found = emb
			break
		}
		if node, isNode := e.g.ElementNode(violated); isNode {
			for i, host := range emb.NodeMap {
				vid := vnet.VNFID(i)
				if vid == vnet.Root || host != node {
					continue
				}
				if c := e.branch(app, r, n, embedder.Ban{V: vid, U: node}, -1); c != nil {
					open = append(open, c)
				}
			}
		} else if c := e.branch(app, r, n, embedder.Ban{}, violated); c != nil {
			open = append(open, c)
		}
	}
	e.bbOpen = open[:0]
	return found
}

// branch makes the child of n that adds ban b (b.V above θ) or excludes
// elem, and returns it when its table is feasible, nil otherwise.
func (e *Engine) branch(app *vnet.App, r workload.Request, n *bbNode, b embedder.Ban, elem graph.ElementID) *bbNode {
	c := e.newBBNode()
	c.parent, c.ban, c.elem = n, b, elem
	if !e.lookup(app, r, c) {
		return nil
	}
	return c
}

// lookup sets n's memo entry, solving n's table first when the memo
// misses its key, and reports whether the table is feasible.
func (e *Engine) lookup(app *vnet.App, r workload.Request, n *bbNode) bool {
	p := n.parent
	var root **bbEntry
	var delta uint64
	var key []byte
	if p == nil {
		root = &e.bbRoots[r.App*e.g.NumNodes()+int(r.Ingress)]
		n.ent = *root
	} else {
		delta = bbDelta(n.ban, n.elem)
		for l := p.ent.links; l != nil; l = l.next {
			if l.delta == delta {
				e.bbStats.linkHits++
				n.ent = l.child
				break
			}
		}
		if n.ent == nil {
			key = e.nodeKey(r, n)
			if n.ent = e.bbMemo[string(key)]; n.ent != nil {
				e.link(p.ent, delta, n.ent)
			}
		}
	}
	if n.ent != nil {
		e.bbStats.hits++
		return !math.IsInf(n.ent.price, 1)
	}
	e.bbStats.misses++
	if p != nil && !p.solved {
		e.bbStats.chained++
	}
	e.solveNode(app, r, n)
	if e.bbSize >= bbMemoCap {
		e.clearMemo()
	}
	if len(e.bbEnts) == cap(e.bbEnts) {
		e.bbEnts = make([]bbEntry, 0, bbChunk)
	}
	e.bbEnts = append(e.bbEnts, bbEntry{price: n.tab.Price()})
	n.ent = &e.bbEnts[len(e.bbEnts)-1]
	e.bbSize++
	if p == nil {
		*root = n.ent
	} else {
		e.bbMemo[string(key)] = n.ent
		e.link(p.ent, delta, n.ent)
	}
	return !math.IsInf(n.ent.price, 1)
}

// link records on parent's entry that the child adding delta has entry
// child.
func (e *Engine) link(parent *bbEntry, delta uint64, child *bbEntry) {
	if len(e.bbLinks) == cap(e.bbLinks) {
		e.bbLinks = make([]bbLink, 0, bbChunk)
	}
	e.bbLinks = append(e.bbLinks, bbLink{delta: delta, child: child, next: parent.links})
	parent.links = &e.bbLinks[len(e.bbLinks)-1]
}

// nodeKey encodes the memo key of n, a child: the request's app and
// ingress, then the bans and the excluded elements along n's parent chain,
// each sorted and without repeats, the bans led by their count. Every
// field is a uvarint, so the encoding is one to one.
func (e *Engine) nodeKey(r workload.Request, n *bbNode) []byte {
	bans, excl := e.bbBans[:0], e.bbExcl[:0]
	for m := n; m.parent != nil; m = m.parent {
		if m.ban.V != vnet.Root {
			bans = append(bans, m.ban)
		} else {
			excl = append(excl, m.elem)
		}
	}
	slices.SortFunc(bans, embedder.CompareBans)
	bans = slices.Compact(bans)
	slices.Sort(excl)
	excl = slices.Compact(excl)
	key := binary.AppendUvarint(e.bbKey[:0], uint64(r.App))
	key = binary.AppendUvarint(key, uint64(r.Ingress))
	key = binary.AppendUvarint(key, uint64(len(bans)))
	for _, b := range bans {
		key = binary.AppendUvarint(key, uint64(b.V))
		key = binary.AppendUvarint(key, uint64(b.U))
	}
	for _, x := range excl {
		key = binary.AppendUvarint(key, uint64(x))
	}
	e.bbBans, e.bbExcl, e.bbKey = bans, excl, key
	return key
}

// solveNode solves n's table unless it has been: the root's by Solve, the
// first table of the request's search, so that it reclaims only tables of
// earlier searches; a child's from its parent's, after solving the parent
// if it has not been (a hit).
func (e *Engine) solveNode(app *vnet.App, r workload.Request, n *bbNode) {
	if n.solved {
		return
	}
	n.solved = true
	p := n.parent
	if p == nil {
		e.oracle.Solve(&n.tab, app, r.Ingress, nil, nil)
		return
	}
	e.solveNode(app, r, p)
	if n.ban.V != vnet.Root {
		e.oracle.SolveBan(&n.tab, &p.tab, n.ban)
	} else {
		e.oracle.SolveExclude(&n.tab, &p.tab, n.elem)
	}
}

// SwapPlan replaces the engine's plan mid-run — the time-varying plan
// extension (paper §VI future work). Plan residuals are re-initialized
// from the new plan; requests allocated under the previous plan keep their
// resources but are reclassified as non-planned, making them preemptible
// borrowers with respect to the new plan's guarantees.
func (e *Engine) SwapPlan(p *plan.Plan) {
	e.opts.Plan = p
	e.shareRes = planResiduals(p)
	e.classOf = e.classTable(p)
	for _, ar := range e.recs {
		ar.planned = false
		ar.classIdx, ar.shareIdx = -1, -1
	}
	e.resetBorrowerIndex()
}

// resetBorrowerIndex rebuilds the borrower index from the active set:
// dropped for an engine without a plan, otherwise every non-planned active
// request is listed afresh (after SwapPlan that is all of them). Insertion
// runs in request-ID order so the lists' layout is a function of the
// request sequence, not of which record each request took.
func (e *Engine) resetBorrowerIndex() {
	if e.opts.Plan.Empty() {
		e.borrowers, e.preDeficit = nil, nil
		return
	}
	if e.borrowers == nil {
		n := e.g.NumElements()
		e.borrowers = make([]borrowerList, n)
		e.preDeficit = make([]float64, n)
	}
	for i := range e.borrowers {
		l := &e.borrowers[i]
		clear(l.refs)
		l.refs, l.dead = l.refs[:0], 0
	}
	ars := e.preCands[:0]
	for _, ar := range e.recs {
		if ar.emb != nil && !ar.planned {
			ars = append(ars, ar)
		}
	}
	slices.SortFunc(ars, func(a, b *activeReq) int { return cmp.Compare(a.req.ID, b.req.ID) })
	for _, ar := range ars {
		e.indexBorrower(ar)
	}
	clear(ars)
	e.preCands = ars
}

// indexBorrower lists the non-planned allocation ar under every element
// of its embedding.
func (e *Engine) indexBorrower(ar *activeReq) {
	for _, u := range ar.emb.UnitUse() {
		l := &e.borrowers[u.Elem]
		l.refs = append(l.refs, ar)
	}
}

// retireBorrower accounts for the entries a just-released borrower with
// embedding emb leaves behind, and compacts each list in which such
// entries now outnumber the live ones.
func (e *Engine) retireBorrower(emb *vnet.Embedding) {
	for _, u := range emb.UnitUse() {
		l := &e.borrowers[u.Elem]
		l.dead++
		if 2*l.dead <= len(l.refs) {
			continue
		}
		e.preEpoch++
		live := l.refs[:0]
		for _, ar := range l.refs {
			if ar.mark != e.preEpoch && ar.borrows(u.Elem) {
				ar.mark = e.preEpoch
				live = append(live, ar)
			}
		}
		clear(l.refs[len(live):]) // the tail must not pin released records
		l.refs, l.dead = live, 0
	}
}

// PreemptStats returns the engine's PREEMPT counters.
func (e *Engine) PreemptStats() PreemptStats { return e.preStats }

// PlannedResidual returns the remaining planned capacity (demand units)
// of the class serving (app, ingress); zero when the plan has no such
// class. Diagnostics for Fig. 12-style introspection.
func (e *Engine) PlannedResidual(app int, ingress graph.NodeID) float64 {
	ci := e.classIndex(app, ingress)
	if ci < 0 {
		return 0
	}
	var sum float64
	for _, v := range e.shareRes[ci] {
		sum += v
	}
	return sum
}

// CheckInvariants verifies internal consistency: residuals non-negative
// and consistent with the set of active allocations, ActiveCost their
// summed cost, plan residuals within their shares, the class table an
// image of the plan's lookup, every record either free or named by one
// departure entry, and the borrower index an exact image of the active
// non-planned requests. Used by tests and failure-injection harnesses.
func (e *Engine) CheckInvariants() error {
	recomputed := e.g.Capacities()
	// ActiveCost's rounding grows with the costs that passed through it
	// (a drained engine may read a few ulps of its peak), so the tolerance
	// is relative to the fully loaded substrate's cost, Σ capacity·cost.
	var full, cost float64
	for i, c := range recomputed {
		full += c * e.g.ElementCost(graph.ElementID(i))
	}
	for _, ar := range e.recs {
		if ar.emb != nil {
			ar.emb.Apply(recomputed, ar.req.Demand)
			cost += ar.emb.Cost(ar.req.Demand)
		}
	}
	if math.Abs(e.cost-cost) > 1e-9*(1+full) {
		return fmt.Errorf("core: active cost %g, the active allocations sum to %g", e.cost, cost)
	}
	res := e.st.ResidualVec()
	for i := range recomputed {
		if recomputed[i] < -1e-6 {
			return fmt.Errorf("core: element %d oversubscribed by %g", i, -recomputed[i])
		}
		if diff := recomputed[i] - res[i]; diff > 1e-6 || diff < -1e-6 {
			return fmt.Errorf("core: element %d residual drift %g", i, diff)
		}
	}
	if e.shareRes != nil {
		for ci, rs := range e.shareRes {
			cp := e.opts.Plan.Classes[ci]
			for j, v := range rs {
				max := cp.Shares[j].Fraction * cp.Class.Demand
				if v < -1e-6 || v > max+1e-6 {
					return fmt.Errorf("core: class %d share %d residual %g outside [0,%g]", ci, j, v, max)
				}
			}
		}
	}
	if err := e.checkClassTable(); err != nil {
		return err
	}
	if err := e.checkRecords(); err != nil {
		return err
	}
	return e.checkBorrowerIndex()
}

// checkClassTable audits the class table against Plan.LookupIndex over
// every (app, ingress) of the engine.
func (e *Engine) checkClassTable() error {
	if e.opts.Plan.Empty() != (e.classOf == nil) {
		return errors.New("core: class table out of step with the plan")
	}
	for a := range e.apps {
		for v := graph.NodeID(0); int(v) < e.g.NumNodes(); v++ {
			want, ok := e.opts.Plan.LookupIndex(a, v)
			if !ok {
				want = -1
			}
			if got := e.classIndex(a, v); got != want {
				return fmt.Errorf("core: class table maps (%d,%d) to class %d, the plan to %d", a, v, got, want)
			}
		}
	}
	return nil
}

// checkRecords audits the departure bookkeeping: the calendar and the ID
// index are well formed and the calendar's cursor is the engine's clock;
// each record is named by exactly one calendar entry or sits on the free
// list, never both; a live record (one holding an embedding) departs at its
// entry's slot and is what the index maps its ID to; a free one holds no
// embedding; and the index holds exactly the live records.
func (e *Engine) checkRecords() error {
	if e.cal.cur != e.now {
		return fmt.Errorf("core: departure calendar at slot %d, engine clock at %d", e.cal.cur, e.now)
	}
	named := make([]int, len(e.recs))
	if err := e.cal.check(named); err != nil {
		return err
	}
	if err := e.ids.check(); err != nil {
		return err
	}
	live := 0
	for ri, ar := range e.recs {
		if ar.emb == nil {
			continue
		}
		live++
		if named[ri] != 1 || e.cal.at[ri] != ar.req.Departs() {
			return fmt.Errorf("core: request %d departs at %d, its record is named by %d calendar entries", ar.req.ID, ar.req.Departs(), named[ri])
		}
		if got, ok := e.ids.get(ar.req.ID); !ok || int(got) != ri {
			return fmt.Errorf("core: request %d is at record %d, the ID index says (%d, %v)", ar.req.ID, ri, got, ok)
		}
	}
	if live != e.ids.n {
		return fmt.Errorf("core: %d records hold an embedding, the ID index holds %d", live, e.ids.n)
	}
	for _, ri := range e.freeRecs {
		if ri < 0 || int(ri) >= len(e.recs) {
			return fmt.Errorf("core: free list holds record %d of %d", ri, len(e.recs))
		}
		named[ri]++
		if e.recs[ri].emb != nil {
			return fmt.Errorf("core: free record %d holds request %d", ri, e.recs[ri].req.ID)
		}
	}
	for ri, k := range named {
		if k != 1 {
			return fmt.Errorf("core: record %d is named %d times by the calendar and free list, want once", ri, k)
		}
	}
	return nil
}

// checkBorrowerIndex audits the borrower index: an engine without a plan
// has none; otherwise each list's dead count is exactly the number of its
// entries a walk would skip (left behind by a released request — whatever
// the record holds now — or listing a record a second time), no list is
// left with those in the majority, every entry that counts points at the
// active record of its request, and every active non-planned request is
// found under each element of its embedding.
func (e *Engine) checkBorrowerIndex() error {
	if e.opts.Plan.Empty() {
		if e.borrowers != nil {
			return errors.New("core: engine without a plan holds a borrower index")
		}
		return nil
	}
	if len(e.borrowers) != e.g.NumElements() {
		return fmt.Errorf("core: borrower index covers %d of %d elements", len(e.borrowers), e.g.NumElements())
	}
	listed := make(map[*activeReq]int) // live entries per record, over all lists
	inList := make(map[*activeReq]bool)
	for i := range e.borrowers {
		l, el := &e.borrowers[i], graph.ElementID(i)
		clear(inList)
		for _, ar := range l.refs {
			if inList[ar] || !ar.borrows(el) {
				continue
			}
			if ri, ok := e.ids.get(ar.req.ID); !ok || e.recs[ri] != ar {
				return fmt.Errorf("core: element %d lists request %d, which is not active", el, ar.req.ID)
			}
			inList[ar] = true
			listed[ar]++
		}
		if dead := len(l.refs) - len(inList); dead != l.dead {
			return fmt.Errorf("core: element %d counts %d dead borrower entries, has %d", el, l.dead, dead)
		}
		if 2*l.dead > len(l.refs) {
			return fmt.Errorf("core: element %d borrower list left uncompacted (%d dead of %d)", el, l.dead, len(l.refs))
		}
	}
	for _, ar := range e.recs {
		if ar.emb != nil && !ar.planned && listed[ar] != len(ar.emb.UnitUse()) {
			return fmt.Errorf("core: borrower %d is listed under %d of its %d elements", ar.req.ID, listed[ar], len(ar.emb.UnitUse()))
		}
	}
	for _, v := range e.preDeficit {
		if v != 0 {
			return errors.New("core: preemption deficit scratch not cleared")
		}
	}
	return nil
}
