package serve

import (
	"math"
	"sync/atomic"
	"time"

	"github.com/olive-vne/olive/internal/core"
	"github.com/olive-vne/olive/internal/plan"
	"github.com/olive-vne/olive/internal/substrate"
	"github.com/olive-vne/olive/internal/workload"
)

// opKind discriminates shard queue operations.
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

// op is one unit of serialized shard work. Embeds carry the request and a
// reply channel; releases carry the request ID; the re-sharding ops carry
// a scale factor or a capacity vector.
type op struct {
	kind     opKind
	req      workload.Request
	id       int
	factor   float64   // opScaleDonate: residual fraction the shard keeps
	vec      []float64 // opAddResidual: per-element capacity to deposit
	reply    chan result
	enqueued time.Time // opEmbed: queue-wait measurement
}

// result is a shard's decision for one op.
type result struct {
	slot      int
	accepted  bool
	planned   bool
	released  bool
	cost      float64
	nodes     []int
	preempted []int
	donated   []float64 // opScaleDonate: harvested capacity
	err       error
}

// planUpdate is one published plan generation awaiting adoption by a
// shard. The replanner (or a resize) stores it into the shard's pending
// pointer; the shard goroutine adopts it before the next serialized
// operation, so no request ever observes a half-swapped plan and
// requests already decided keep the generation they were decided under.
type planUpdate struct {
	p         *plan.Plan
	gen       int64
	published time.Time // swap-latency measurement (publish → adopt)
}

// shard owns one single-threaded engine plus its substrate state. All
// engine access happens on the run goroutine; the HTTP layer communicates
// through the bounded queue and reads only the atomic counters.
type shard struct {
	idx   int
	eng   *core.Engine
	st    *substrate.State
	queue chan op
	adv   chan int // departure-timer mailbox, capacity 1, latest slot wins

	now     int     // virtual clock, owned by run()
	baseRes float64 // Σ residual at construction (the shard's capacity slice)
	hook    func(shard int)
	met     *shardMetrics // latency histograms
	hist    *historyRing  // rolling request history; nil unless replanning is on

	// pending is the next plan generation to adopt (nil when current).
	// Written by the replanner/resize publisher, consumed by the shard
	// goroutine; latest published generation wins.
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
	shed      atomic.Int64 // requests refused because this queue was full
	active    atomic.Int64
	utilBits  atomic.Uint64 // float64 bits of 1 - Σres/baseRes
}

func newShard(idx int, eng *core.Engine, st *substrate.State, depth int) *shard {
	sh := &shard{
		idx:   idx,
		eng:   eng,
		st:    st,
		queue: make(chan op, depth),
		adv:   make(chan int, 1),
	}
	for _, r := range st.ResidualVec() {
		sh.baseRes += r
	}
	return sh
}

// tryAdvance delivers a departure-timer tick without blocking: the
// mailbox holds one pending slot and advances are absolute, so dropping
// a tick only delays releases until the next one.
func (sh *shard) tryAdvance(slot int) {
	select {
	case sh.adv <- slot:
	default:
	}
}

// run is the shard loop: it serializes every engine interaction. It exits
// when the queue is closed and drained (departure ticks may be dropped
// from then on — the server is shutting down).
func (sh *shard) run() {
	for {
		select {
		case o, ok := <-sh.queue:
			if !ok {
				return
			}
			sh.handle(o)
		case slot := <-sh.adv:
			sh.adoptPending()
			sh.advance(slot)
			sh.refreshGauges()
		}
	}
}

// adoptPending swaps in the latest published plan, if any. It runs on
// the shard goroutine before each serialized operation, so the swap is
// atomic with respect to decisions: every request is decided entirely
// under one generation, and the adoption point in a sequential replay
// stream is exactly the gap between two requests — deterministic when
// the trigger is (the admin endpoint is synchronous; cadence triggers
// are a real-time-mode feature).
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

func (sh *shard) handle(o op) {
	sh.adoptPending()
	switch o.kind {
	case opEmbed:
		sh.handleEmbed(o)
	case opRelease:
		ok := sh.eng.ReleaseByID(o.id)
		if ok {
			sh.released.Add(1)
		}
		o.reply <- result{slot: sh.now, released: ok}
	case opScaleDonate:
		res := sh.st.ResidualVec()
		donated := make([]float64, len(res))
		for i, r := range res {
			donated[i] = r * (1 - o.factor)
			sh.baseRes -= donated[i]
		}
		sh.st.ScaleResidual(o.factor)
		o.reply <- result{slot: sh.now, donated: donated}
	case opAddResidual:
		for _, v := range o.vec {
			sh.baseRes += v
		}
		sh.st.AddResidual(o.vec)
		o.reply <- result{slot: sh.now}
	}
	sh.refreshGauges()
}

//olive:hotpath per-request serve path; allocs guarded by BenchmarkServeEmbedWithMetrics
func (sh *shard) handleEmbed(o op) {
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
	sh.met.queueWait.Observe(t0.Sub(o.enqueued).Seconds())
	out, err := sh.eng.Process(r)
	sh.met.solveDur.Observe(time.Since(t0).Seconds())
	sh.processed.Add(1)
	res := result{slot: sh.now, err: err}
	if err == nil && out.Accepted {
		sh.accepted.Add(1)
		// The shard goroutine is the only writer, so a load and a store
		// add without a compare-and-swap loop.
		sh.revBits.Store(math.Float64bits(sh.revenue() + r.Demand*float64(r.Duration)))
		res.accepted = true
		res.planned = out.Planned
		res.cost = out.Emb.Cost(r.Demand)
		res.nodes = make([]int, len(out.Emb.NodeMap))
		for i, n := range out.Emb.NodeMap {
			res.nodes[i] = int(n)
		}
		res.preempted = out.Preempted
		sh.preempted.Add(int64(len(out.Preempted)))
	} else {
		sh.rejected.Add(1)
	}
	o.reply <- res
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
