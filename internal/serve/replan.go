package serve

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"github.com/olive-vne/olive/internal/plan"
)

// Replan trigger errors, distinguishable by the HTTP layer.
var (
	// ErrReplanDisabled: the server was built without Options.Replan.
	ErrReplanDisabled = errors.New("serve: replanning disabled")
	// ErrReplanBusy: a rebuild is already running (one at a time; the
	// warm solver state is not concurrency-safe).
	ErrReplanBusy = errors.New("serve: replan already in progress")
	// ErrInsufficientHistory: the rolling history holds fewer requests
	// than Options.Replan.MinHistory.
	ErrInsufficientHistory = errors.New("serve: insufficient history for replan")
)

// replanner owns the background rebuild machinery: one plan.Solver
// reused across rebuilds (its warm substrate state, and its column pool,
// which seeds each rebuild with the columns the previous plan used;
// every rebuild's first master solve is cold), a busy flag
// serializing rebuilds, and the outcome counters /stats and /metrics
// export. Rebuilds run off the request path: the only contact with the
// shards is snapshotting their history rings and storing the finished
// plan into their pending pointers.
type replanner struct {
	s       *Server
	solver  *plan.Solver
	running atomic.Bool

	rebuilds atomic.Int64 // successful rebuilds (== published generation)
	failed   atomic.Int64 // rebuilds that errored
	skipped  atomic.Int64 // triggers skipped for insufficient history

	lastBuiltSlot atomic.Int64 // virtual slot the last rebuild was published at
	lastHistory   atomic.Int64 // history size the last rebuild aggregated
	lastClasses   atomic.Int64 // class count of the last rebuilt plan

	stop     chan struct{}
	tickerWG sync.WaitGroup
}

func newReplanner(s *Server) *replanner {
	return &replanner{
		s:      s,
		solver: plan.NewSolver(s.g, s.apps),
		stop:   make(chan struct{}),
	}
}

// startTicker launches the cadence goroutine (real-time mode only; the
// caller gates on Deterministic). Skipped and busy triggers are normal —
// the counters record every outcome.
func (r *replanner) startTicker(interval time.Duration) {
	r.tickerWG.Add(1)
	go func() {
		defer r.tickerWG.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				_, _ = r.s.TriggerReplan()
			}
		}
	}()
}

func (r *replanner) stopTicker() {
	close(r.stop)
	r.tickerWG.Wait()
}

// TriggerReplan runs one rebuild synchronously: it exports the rolling
// request history, aggregates it into plan classes, solves PLAN-VNE on
// the warm solver, and publishes the result as the next plan generation.
// Each shard adopts the new generation before its next serialized
// operation — requests already queued or in flight are decided under the
// generation they arrived at, and no request is ever dropped by a swap.
//
// The rebuild's randomness is PCG(Replan.Seed, generation), so a given
// (history, generation) pair rebuilds identically; with a deterministic
// server and a sequential replay stream the whole trigger is
// reproducible, which is how the e2e drift run pins its swap points.
//
// Returns the new generation, or ErrReplanDisabled / ErrReplanBusy /
// ErrInsufficientHistory (all leaving the published plan untouched).
func (s *Server) TriggerReplan() (int64, error) {
	r := s.replan
	if r == nil {
		return 0, ErrReplanDisabled
	}
	if !r.running.CompareAndSwap(false, true) {
		return 0, ErrReplanBusy
	}
	defer r.running.Store(false)

	hist := s.HistoryTrace()
	if len(hist.Requests) < s.opts.Replan.MinHistory {
		r.skipped.Add(1)
		return 0, fmt.Errorf("%w: have %d of %d requests",
			ErrInsufficientHistory, len(hist.Requests), s.opts.Replan.MinHistory)
	}
	gen := s.planGen.Load() + 1
	rng := rand.New(rand.NewPCG(s.opts.Replan.Seed, uint64(gen)))
	p, err := r.solver.BuildFromHistory(hist, plan.DefaultOptions(), rng)
	if err != nil {
		r.failed.Add(1)
		return 0, fmt.Errorf("serve: replan generation %d: %w", gen, err)
	}
	r.lastHistory.Store(int64(len(hist.Requests)))
	r.lastClasses.Store(int64(len(p.Classes)))
	r.lastBuiltSlot.Store(s.maxSlot())
	s.publishPlan(p, gen)
	r.rebuilds.Add(1)
	return gen, nil
}

// publishPlan makes p the current generation: resizes build new shards
// from it, and every routable shard adopts it before its next serialized
// operation. One shared planUpdate serves all shards — it is read-only
// after publication.
func (s *Server) publishPlan(p *plan.Plan, gen int64) {
	s.curPlan.Store(p)
	s.planGen.Store(gen)
	pu := &planUpdate{p: p, gen: gen, published: time.Now()}
	for _, sh := range s.routeShards() {
		sh.pending.Store(pu)
	}
}

// maxSlot returns the highest virtual slot any routable shard has
// reached — the server's notion of "now" in slot units.
func (s *Server) maxSlot() int64 {
	var m int64
	for _, sh := range s.routeShards() {
		if v := sh.slot.Load(); v > m {
			m = v
		}
	}
	return m
}

// PlanInfo is the body of GET /v1/plan: the current plan generation and
// the provenance of its build.
type PlanInfo struct {
	// Generation is the published plan generation (0 = the plan the
	// server was constructed with; each successful replan increments).
	Generation int64 `json:"generation"`
	// Classes is the class count of the published plan (0 for plan-less
	// algorithms).
	Classes int `json:"classes"`
	// BuiltAtSlot is the virtual slot the published generation was built
	// at (0 for the construction plan).
	BuiltAtSlot int64 `json:"built_at_slot"`
	// HistoryRequests is the rolling-history size the published
	// generation aggregated (0 for the construction plan).
	HistoryRequests int64 `json:"history_requests"`
	// ShardGenerations lists the generation each routable shard has
	// adopted; shards trail Generation until their next operation.
	ShardGenerations []int64 `json:"shard_generations"`
	// ReplanEnabled reports whether the server replans at all.
	ReplanEnabled bool `json:"replan_enabled"`
}

// PlanStatus snapshots the published plan and its adoption state.
func (s *Server) PlanStatus() PlanInfo {
	info := PlanInfo{
		Generation:    s.planGen.Load(),
		ReplanEnabled: s.replan != nil,
	}
	if p := s.curPlan.Load(); p != nil {
		info.Classes = len(p.Classes)
	}
	if s.replan != nil {
		info.BuiltAtSlot = s.replan.lastBuiltSlot.Load()
		info.HistoryRequests = s.replan.lastHistory.Load()
	}
	for _, sh := range s.routeShards() {
		info.ShardGenerations = append(info.ShardGenerations, sh.gen.Load())
	}
	return info
}
