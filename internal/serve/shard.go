package serve

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/olive-vne/olive/internal/core"
	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/plan"
	"github.com/olive-vne/olive/internal/substrate"
	"github.com/olive-vne/olive/internal/workload"
)

// opKind discriminates shard operations.
type opKind uint8

const (
	opEmbed opKind = iota
	opRelease
	// opScaleDonate scales the shard's residual by a factor and replies
	// with the donated (removed) per-element capacity — the harvest half
	// of elastic re-sharding. Factor 0 takes everything.
	opScaleDonate
	// opAddResidual deposits a donated capacity vector into the shard's
	// residual — the other half of re-sharding.
	opAddResidual
)

// op is one unit of serialized shard work. Embeds carry the request;
// releases carry the request ID; the re-sharding ops carry a scale factor
// or a capacity vector.
type op struct {
	kind      opKind
	req       workload.Request
	id        int
	factor    float64   // opScaleDonate: residual fraction the shard keeps
	vec       []float64 // opAddResidual: per-element capacity to deposit
	submitted time.Time // opEmbed: wait measurement (submit → decision start)
}

// result is a shard's decision for one op.
type result struct {
	slot      int
	accepted  bool
	planned   bool
	released  bool
	cost      float64
	nodes     []graph.NodeID // the embedding's NodeMap, shared and read-only
	preempted []int
	donated   []float64 // opScaleDonate: harvested capacity
	err       error
}

// planUpdate is one published plan generation awaiting adoption by a
// shard. The replanner (or a resize) stores it into the shard's pending
// pointer; the shard adopts it before its next serialized operation, so
// no request ever observes a half-swapped plan and requests already
// decided keep the generation they were decided under.
type planUpdate struct {
	p         *plan.Plan
	gen       int64
	published time.Time // swap-latency measurement (publish → adopt)
}

// shard owns one single-threaded engine plus its substrate state. Every
// engine access holds mu, on the goroutine that needs the engine: a
// handler deciding an embed or a release, a resize moving capacity, the
// departure timer's tick. Other goroutines read only the atomic counters.
//
// Ops that find mu held wait for it and take it in whatever order the
// mutex hands it over. Only concurrent ops can swap places: an op
// submitted after another's result returned is always decided after it,
// so a sequential replay, and with it the deterministic mode, sees a
// fixed order.
type shard struct {
	idx   int
	eng   *core.Engine
	st    *substrate.State
	depth int // Limits.QueueDepth: the most ops admitted to wait for mu

	// mu is held whenever the engine is in use. waiting counts the ops
	// admitted to the shard that have not yet taken mu.
	mu      sync.Mutex
	waiting atomic.Int64

	now     int     // virtual clock, guarded by mu
	baseRes float64 // Σ residual of the shard's capacity slice, guarded by mu
	hook    func(shard int)
	met     *shardMetrics // latency histograms
	hist    *historyRing  // rolling request history; nil unless replanning is on

	// pending is the next plan generation to adopt (nil when current).
	// Written by the replanner/resize publisher, consumed by the shard's
	// next serialized op; latest published generation wins.
	pending atomic.Pointer[planUpdate]

	// Counters read by /stats from other goroutines.
	gen       atomic.Int64 // plan generation the engine currently runs
	slot      atomic.Int64 // published virtual clock (mirror of now)
	retired   atomic.Bool  // removed from the routing table by a shrink
	processed atomic.Int64
	accepted  atomic.Int64
	revBits   atomic.Uint64 // float64 bits of Σ demand·duration over accepted requests
	rejected  atomic.Int64
	preempted atomic.Int64
	released  atomic.Int64
	shed      atomic.Int64 // requests refused because depth ops were waiting
	active    atomic.Int64
	utilBits  atomic.Uint64 // float64 bits of 1 - Σres/baseRes
}

func newShard(idx int, eng *core.Engine, st *substrate.State, depth int) *shard {
	sh := &shard{idx: idx, eng: eng, st: st, depth: depth}
	for _, r := range st.ResidualVec() {
		sh.baseRes += r
	}
	return sh
}

// submit decides o under mu on the caller's goroutine and returns its
// result. With wait false, a shard that already has depth ops waiting
// for mu refuses o: ok is false and the shed counter is bumped.
func (sh *shard) submit(o op, wait bool) (res result, ok bool) {
	if sh.waiting.Add(1) > int64(sh.depth) && !wait {
		sh.waiting.Add(-1)
		sh.shed.Add(1)
		return result{}, false
	}
	sh.mu.Lock()
	sh.waiting.Add(-1)
	res = sh.decide(&o)
	sh.mu.Unlock()
	return res, true
}

// tick applies a departure-timer tick: it adopts any pending plan and
// moves the virtual clock forward to slot, releasing the departures in
// between.
func (sh *shard) tick(slot int) {
	sh.mu.Lock()
	sh.adoptPending()
	sh.advance(slot)
	sh.refreshGauges()
	sh.mu.Unlock()
}

// adoptPending swaps in the latest published plan, if any. It runs under
// mu before each serialized operation, so the swap is atomic with respect
// to decisions: every request is decided entirely under one generation,
// and the adoption point in a sequential replay stream is exactly the gap
// between two requests — deterministic when the trigger is (the admin
// endpoint is synchronous; cadence triggers are a real-time-mode
// feature).
func (sh *shard) adoptPending() {
	pu := sh.pending.Load()
	if pu == nil || !sh.pending.CompareAndSwap(pu, nil) {
		return
	}
	sh.eng.SwapPlan(pu.p)
	sh.gen.Store(pu.gen)
	sh.met.swapDur.Observe(time.Since(pu.published).Seconds())
}

// advance moves the virtual clock forward to slot (never backward),
// releasing departures in between.
func (sh *shard) advance(slot int) {
	if slot > sh.now {
		sh.now = slot
		sh.slot.Store(int64(slot))
		sh.eng.StartSlot(slot)
	}
}

// decide runs one serialized op against the engine. The caller holds mu.
func (sh *shard) decide(o *op) result {
	sh.adoptPending()
	var res result
	switch o.kind {
	case opEmbed:
		res = sh.decideEmbed(o)
	case opRelease:
		ok := sh.eng.ReleaseByID(o.id)
		if ok {
			sh.released.Add(1)
		}
		res = result{slot: sh.now, released: ok}
	case opScaleDonate:
		resid := sh.st.ResidualVec()
		donated := make([]float64, len(resid))
		for i, r := range resid {
			donated[i] = r * (1 - o.factor)
			sh.baseRes -= donated[i]
		}
		sh.st.ScaleResidual(o.factor)
		res = result{slot: sh.now, donated: donated}
	case opAddResidual:
		for _, v := range o.vec {
			sh.baseRes += v
		}
		sh.st.AddResidual(o.vec)
		res = result{slot: sh.now}
	}
	sh.refreshGauges()
	return res
}

//olive:hotpath per-request serve path; allocs guarded by BenchmarkServeEmbedWithMetrics
func (sh *shard) decideEmbed(o *op) result {
	if sh.hook != nil {
		sh.hook(sh.idx)
	}
	// The request's Arrive field drives the virtual clock forward (in
	// real-time mode the HTTP layer stamps it from the wall clock).
	sh.advance(o.req.Arrive)
	r := o.req
	r.Arrive = sh.now // engine contract: requests arrive at the current slot

	if sh.hist != nil {
		sh.hist.add(r)
	}
	t0 := time.Now()
	sh.met.queueWait.Observe(t0.Sub(o.submitted).Seconds())
	out, err := sh.eng.Process(r)
	sh.met.solveDur.Observe(time.Since(t0).Seconds())
	sh.processed.Add(1)
	res := result{slot: sh.now, err: err}
	if err == nil && out.Accepted {
		sh.accepted.Add(1)
		// Writers hold mu, so a load and a store add without a
		// compare-and-swap loop.
		sh.revBits.Store(math.Float64bits(sh.revenue() + r.Demand*float64(r.Duration)))
		res.accepted = true
		res.planned = out.Planned
		res.cost = out.Emb.Cost(r.Demand)
		res.nodes = out.Emb.NodeMap
		res.preempted = out.Preempted
		sh.preempted.Add(int64(len(out.Preempted)))
	} else {
		sh.rejected.Add(1)
	}
	return res
}

// revenue reads Σ demand·duration over the shard's accepted requests.
func (sh *shard) revenue() float64 {
	return math.Float64frombits(sh.revBits.Load())
}

// utilization reads the last published allocated fraction.
func (sh *shard) utilization() float64 {
	return math.Float64frombits(sh.utilBits.Load())
}

// refreshGauges republishes the active-count and utilization gauges after
// every serialized operation.
func (sh *shard) refreshGauges() {
	sh.active.Store(int64(sh.eng.ActiveCount()))
	var free float64
	for _, r := range sh.st.ResidualVec() {
		free += r
	}
	util := 0.0
	if sh.baseRes > 0 {
		util = 1 - free/sh.baseRes
	}
	sh.utilBits.Store(math.Float64bits(util))
}
