// Package sim is the discrete-time simulation engine of the reproduction:
// it drives the OLIVE/QUICKG/FULLG engines and the SLOTOFF baseline over
// generated traces, accounts costs exactly as the paper's objective
// (resource cost Eq. 3 plus rejection cost Eq. 4), and aggregates repeated
// runs with 95% confidence intervals. Every figure and table of the
// paper is a registered scenario (internal/scenario) that RunScenario
// renders (scenario_exec.go).
package sim

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"github.com/olive-vne/olive/internal/core"
	"github.com/olive-vne/olive/internal/embedder"
	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/plan"
	"github.com/olive-vne/olive/internal/stats"
	"github.com/olive-vne/olive/internal/substrate"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
	"github.com/olive-vne/olive/internal/workload"
)

// TraceKind selects the arrival process.
type TraceKind string

// Trace kinds of §IV-A.
const (
	TraceMMPP  TraceKind = "mmpp"
	TraceCAIDA TraceKind = "caida"
)

// UnmarshalText parses a trace kind, failing with the valid kinds.
func (k *TraceKind) UnmarshalText(b []byte) error {
	switch v := TraceKind(b); v {
	case TraceMMPP, TraceCAIDA:
		*k = v
		return nil
	}
	return fmt.Errorf("unknown trace %q (valid: %s, %s)", b, TraceMMPP, TraceCAIDA)
}

// Config describes one simulation run.
type Config struct {
	// Topology and TopologySeed select the substrate.
	Topology     topo.Name
	TopologySeed uint64
	// Seed drives the application set, trace and plan randomness.
	Seed uint64

	// Utilization is the target edge utilization (1.0 = 100%).
	Utilization float64
	// PlanUtilization, when non-zero, builds the plan from a history
	// generated at a different utilization (Fig. 13's deviation
	// stressor).
	PlanUtilization float64
	// ShufflePlanIngress randomizes the ingress of every history
	// request before planning (Fig. 14's spatial stressor).
	ShufflePlanIngress bool

	// HistSlots and OnlineSlots split the trace (5400/600 in the
	// paper).
	HistSlots   int
	OnlineSlots int
	// LambdaPerNode is the mean arrival rate per edge node (10).
	LambdaPerNode float64
	// DemandMeanOverride, when non-zero, replaces the utilization-derived
	// mean request demand. Fig. 16a uses it to keep utilization constant
	// while the arrival rate grows.
	DemandMeanOverride float64
	// Trace selects MMPP (default) or the CAIDA-like substitute.
	Trace TraceKind
	// DiurnalPeriod sets the CAIDA substitute's rate-modulation period
	// in slots (0 = whole trace). Used with PlanWindows.
	DiurnalPeriod int

	// AppKind, when non-zero, replaces the default 2-chain/tree/
	// accelerator mix with four applications of a single kind (Fig. 9
	// and Fig. 10).
	AppKind vnet.Kind
	// GPU switches to the Fig. 10 scenario: the substrate is split
	// into GPU and non-GPU datacenters and applications are GPU chains.
	GPU bool

	// Algorithms lists the algorithms to run (default: OLIVE, QUICKG,
	// SLOTOFF).
	Algorithms []core.Algorithm
	// PlanOptions configures PLAN-VNE (zero value → plan.DefaultOptions).
	PlanOptions plan.Options
	// PlanWindows, when > 1, enables the time-varying plan extension:
	// the demand cycle (DiurnalPeriod) is split into this many windows,
	// each with its own PLAN-VNE solution, and OLIVE swaps plans at
	// window boundaries (paper §VI future work).
	PlanWindows int
	// EngineOptions carries OLIVE ablation switches (Plan is overwritten).
	EngineOptions core.Options

	// MeasureFrom/MeasureTo bound the arrival slots (within the online
	// phase) whose requests are counted in rejection/cost metrics; 0/0
	// means the full online phase. The paper measures slots 100–500.
	MeasureFrom, MeasureTo int
}

// DefaultConfig returns the paper-scale configuration (Table III) for one
// topology at the given utilization.
func DefaultConfig(t topo.Name, util float64, seed uint64) Config {
	return Config{
		Topology:      t,
		TopologySeed:  1,
		Seed:          seed,
		Utilization:   util,
		HistSlots:     5400,
		OnlineSlots:   600,
		LambdaPerNode: 10,
		Trace:         TraceMMPP,
		Algorithms:    []core.Algorithm{core.AlgoOLIVE, core.AlgoQuickG, core.AlgoSlotOff},
		PlanOptions:   plan.DefaultOptions(),
		MeasureFrom:   100,
		MeasureTo:     500,
	}
}

// QuickConfig returns a scaled-down configuration for tests and smoke
// benches: same structure, ~50× fewer requests.
func QuickConfig(t topo.Name, util float64, seed uint64) Config {
	c := DefaultConfig(t, util, seed)
	c.HistSlots = 200
	c.OnlineSlots = 60
	c.LambdaPerNode = 3
	c.PlanOptions.BootstrapB = 30
	c.PlanOptions.MaxPricingRounds = 4
	c.MeasureFrom, c.MeasureTo = 10, 50
	return c
}

func (c *Config) normalize() {
	if c.Trace == "" {
		c.Trace = TraceMMPP
	}
	if len(c.Algorithms) == 0 {
		c.Algorithms = []core.Algorithm{core.AlgoOLIVE, core.AlgoQuickG, core.AlgoSlotOff}
	}
	if c.PlanOptions.Quantiles == 0 {
		c.PlanOptions = plan.DefaultOptions()
	}
	if c.MeasureTo == 0 {
		c.MeasureFrom, c.MeasureTo = 0, c.OnlineSlots
	}
}

// RequestRecord logs one request's fate for figure reconstruction.
type RequestRecord struct {
	ID       int
	App      int
	Ingress  graph.NodeID
	Arrive   int // online-phase slot
	Duration int
	Demand   float64
	Accepted bool
	Planned  bool
	// Preempted is true if the request was accepted and later evicted;
	// PreemptSlot is when.
	Preempted   bool
	PreemptSlot int
	// Cost is the accepted request's per-slot resource cost (its
	// embedding's Eq. 3 cost at its demand) under OLIVE, QUICKG and
	// FULLG. SLOTOFF re-embeds every slot and leaves it 0.
	Cost float64
}

// AlgoResult carries one algorithm's metrics for one run.
type AlgoResult struct {
	Algorithm core.Algorithm

	// RejectionRate is rejected/total over the measurement window;
	// preempted requests count as rejected (they incur Ψ).
	RejectionRate float64
	// ResourceCost is Σ_t Σ_s load·cost (Eq. 3) over the online phase:
	// each slot adds the engine's ActiveCost after the slot's last
	// request (SLOTOFF: the slot's Step cost).
	ResourceCost float64
	// RejectionCost is Σ Ψ(r) over rejected and preempted requests in
	// the window (Eq. 4).
	RejectionCost float64
	// TotalCost = ResourceCost + RejectionCost.
	TotalCost float64
	// BalanceIndex is the rejection balance index of Eq. 20 over the
	// window.
	BalanceIndex float64
	// Runtime is the wall-clock time of online processing (plan
	// construction excluded; the paper reports it separately).
	Runtime time.Duration

	// PerSlotRequested/Accepted hold arriving demand per online slot
	// and the accepted part (Fig. 8).
	PerSlotRequested []float64
	PerSlotAccepted  []float64

	// Log holds one record per online request, indexed by request ID:
	// Split numbers the online phase 0..N−1 in arrival order.
	Log []RequestRecord
}

// RunResult is the outcome of one simulation run.
type RunResult struct {
	Config    Config
	Substrate *graph.Graph
	Apps      []*vnet.App
	Plan      *plan.Plan
	// Windowed holds the per-window plans when PlanWindows > 1.
	Windowed *plan.WindowedPlan
	PlanTime time.Duration
	Results  map[core.Algorithm]*AlgoResult
}

// Run executes one simulation.
func Run(cfg Config) (*RunResult, error) {
	cfg.normalize()
	if cfg.HistSlots <= 0 || cfg.OnlineSlots <= 0 {
		return nil, errors.New("sim: HistSlots and OnlineSlots must be positive")
	}
	// An empty window would count no request and report a perfect score.
	// A MeasureTo past the online phase is legal: it is clipped.
	if cfg.MeasureFrom < 0 || cfg.MeasureFrom >= min(cfg.MeasureTo, cfg.OnlineSlots) {
		return nil, fmt.Errorf("sim: measurement window [%d, %d) holds no slot of the %d-slot online phase",
			cfg.MeasureFrom, cfg.MeasureTo, cfg.OnlineSlots)
	}

	g, err := topo.Build(cfg.Topology, cfg.TopologySeed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x51f0))

	// Application set.
	var apps []*vnet.App
	ap := vnet.DefaultParams()
	switch {
	case cfg.GPU:
		g = topo.MakeGPUVariant(g, 4, cfg.Seed)
		apps = vnet.UniformKindSet(vnet.KindGPU, ap, rng)
	case cfg.AppKind != 0:
		apps = vnet.UniformKindSet(cfg.AppKind, ap, rng)
	default:
		apps = vnet.DefaultMix(ap, rng)
	}

	// Traces: one history (for the plan) and one online phase.
	makeTrace := func(p workload.Params, r *rand.Rand) (*workload.Trace, error) {
		if cfg.Trace == TraceCAIDA {
			cp := workload.DefaultCAIDAParams()
			cp.DiurnalPeriod = cfg.DiurnalPeriod
			return workload.GenerateCAIDA(g, p, cp, r)
		}
		return workload.GenerateMMPP(g, p, r)
	}
	wp := workload.DefaultParams().WithUtilization(cfg.Utilization)
	wp.Slots = cfg.HistSlots + cfg.OnlineSlots
	wp.LambdaPerNode = cfg.LambdaPerNode
	wp.NumApps = len(apps)
	// Utilization calibration: with Table II/III constants, edge
	// utilization u needs E[d] = u·edgeCap/(λ·E[T]·E[Σβ]) = u·100/λ —
	// the paper's E[d]=10·u at λ=10. Scaling demand with 1/λ keeps
	// reduced-rate runs (and the Fig. 16a sweep) at the target
	// utilization.
	wp.DemandMean = cfg.Utilization * 100 / cfg.LambdaPerNode
	if cfg.DemandMeanOverride > 0 {
		wp.DemandMean = cfg.DemandMeanOverride
	}
	full, err := makeTrace(wp, rng)
	if err != nil {
		return nil, err
	}
	hist, online, err := full.Split(cfg.HistSlots)
	if err != nil {
		return nil, err
	}

	// Plan input stressors (Figs. 13–14) regenerate or perturb the
	// history.
	planHist := hist
	if cfg.PlanUtilization != 0 && cfg.PlanUtilization != cfg.Utilization {
		pw := wp.WithUtilization(cfg.PlanUtilization)
		pw.Slots = cfg.HistSlots
		planRNG := rand.New(rand.NewPCG(cfg.Seed, 0x9a17))
		planHist, err = makeTrace(pw, planRNG)
		if err != nil {
			return nil, err
		}
	}
	if cfg.ShufflePlanIngress {
		planHist = workload.ShuffleIngress(planHist, g, rand.New(rand.NewPCG(cfg.Seed, 0x5bf1)))
	}

	res := &RunResult{
		Config: cfg, Substrate: g, Apps: apps,
		Results: make(map[core.Algorithm]*AlgoResult, len(cfg.Algorithms)),
	}

	needPlan := false
	for _, a := range cfg.Algorithms {
		if a == core.AlgoOLIVE {
			needPlan = true
		}
	}
	if needPlan {
		t0 := time.Now() //olive:wallclock PlanTime runtime column; goldens exclude it
		if cfg.PlanWindows > 1 {
			period := cfg.DiurnalPeriod
			if period <= 0 || period > planHist.Slots {
				period = planHist.Slots
			}
			wp, err := plan.BuildWindowed(g, apps, planHist, period, cfg.PlanWindows, cfg.PlanOptions, rng)
			if err != nil {
				return nil, fmt.Errorf("sim: windowed plan: %w", err)
			}
			res.Windowed = wp
			res.Plan = wp.At(cfg.HistSlots) // plan governing online slot 0
		} else {
			p, err := plan.BuildFromHistory(g, apps, planHist, cfg.PlanOptions, rng)
			if err != nil {
				return nil, fmt.Errorf("sim: plan: %w", err)
			}
			res.Plan = p
		}
		res.PlanTime = time.Since(t0) //olive:wallclock runtime column
	}

	psi := make([]float64, len(apps))
	for i, a := range apps {
		psi[i] = plan.DefaultRejectionFactor(g, a)
	}

	// One substrate state per simulation cell: the engines of every
	// algorithm run over it back to back, sharing the lazy shortest-path
	// cache and the embedder's collocated-candidate memos (prices are the
	// element costs for all of them); only the residual vector is reset
	// between runs.
	oracle := embedder.ForState(substrate.New(g))
	for _, algo := range cfg.Algorithms {
		ar, err := runAlgorithm(cfg, g, apps, oracle, res.Plan, res.Windowed, psi, online, algo)
		if err != nil {
			return nil, err
		}
		res.Results[algo] = ar
	}
	return res, nil
}

// runAlgorithm executes the online phase under one algorithm.
func runAlgorithm(cfg Config, g *graph.Graph, apps []*vnet.App, oracle *embedder.Oracle, p *plan.Plan, wp *plan.WindowedPlan, psi []float64, online *workload.Trace, algo core.Algorithm) (*AlgoResult, error) {
	ar := &AlgoResult{
		Algorithm:        algo,
		PerSlotRequested: make([]float64, online.Slots),
		PerSlotAccepted:  make([]float64, online.Slots),
		Log:              make([]RequestRecord, len(online.Requests)),
	}
	for _, r := range online.Requests {
		ar.Log[r.ID] = RequestRecord{
			ID: r.ID, App: r.App, Ingress: r.Ingress,
			Arrive: r.Arrive, Duration: r.Duration, Demand: r.Demand,
		}
	}
	slots := online.PerSlot()

	if algo == core.AlgoSlotOff {
		return ar, runSlotOff(cfg, g, apps, oracle, psi, slots, ar)
	}

	opts := cfg.EngineOptions
	switch algo {
	case core.AlgoOLIVE:
		opts.Plan = p
		opts.Exact = false
	case core.AlgoQuickG:
		opts.Plan = nil
		opts.Exact = false
	case core.AlgoFullG:
		opts.Plan = nil
		opts.Exact = true
	default:
		return nil, fmt.Errorf("sim: unknown algorithm %q", algo)
	}
	eng, err := core.NewEngineOn(oracle, apps, opts)
	if err != nil {
		return nil, err
	}

	t0 := time.Now() //olive:wallclock Runtime column; goldens exclude it
	curWindow := -1
	if wp != nil && algo == core.AlgoOLIVE {
		curWindow = wp.WindowOf(cfg.HistSlots)
	}
	for t := 0; t < online.Slots; t++ {
		if wp != nil && algo == core.AlgoOLIVE {
			if w := wp.WindowOf(cfg.HistSlots + t); w != curWindow {
				curWindow = w
				eng.SwapPlan(wp.Plans[w])
			}
		}
		eng.StartSlot(t)
		for _, r := range slots[t] {
			ar.PerSlotRequested[t] += r.Demand
			out, err := eng.Process(r)
			if err != nil {
				return nil, err
			}
			for _, pid := range out.Preempted {
				ar.Log[pid].Preempted = true
				ar.Log[pid].PreemptSlot = t
			}
			if out.Accepted {
				ar.Log[r.ID].Accepted = true
				ar.Log[r.ID].Planned = out.Planned
				ar.Log[r.ID].Cost = out.Emb.Cost(r.Demand)
				ar.PerSlotAccepted[t] += r.Demand
			}
		}
		ar.ResourceCost += eng.ActiveCost()
	}
	ar.Runtime = time.Since(t0) //olive:wallclock runtime column

	finalizeMetrics(cfg, g, apps, psi, ar)
	return ar, nil
}

// runSlotOff executes the SLOTOFF baseline over the cell's shared
// substrate state.
func runSlotOff(cfg Config, g *graph.Graph, apps []*vnet.App, oracle *embedder.Oracle, psi []float64, slots [][]workload.Request, ar *AlgoResult) error {
	so, err := core.NewSlotOffOn(oracle, apps, core.SlotOffOptions())
	if err != nil {
		return err
	}
	t0 := time.Now() //olive:wallclock Runtime column; goldens exclude it
	for t := range slots {
		for _, r := range slots[t] {
			ar.PerSlotRequested[t] += r.Demand
		}
		res, err := so.Step(t, slots[t])
		if err != nil {
			return err
		}
		for _, r := range res.AcceptedNew {
			ar.Log[r.ID].Accepted = true
			ar.Log[r.ID].Planned = true // SLOTOFF allocations are all LP-planned
			ar.PerSlotAccepted[t] += r.Demand
		}
		for _, r := range res.Dropped {
			ar.Log[r.ID].Preempted = true
			ar.Log[r.ID].PreemptSlot = t
		}
		ar.ResourceCost += res.ResourceCost
	}
	ar.Runtime = time.Since(t0) //olive:wallclock runtime column
	finalizeMetrics(cfg, g, apps, psi, ar)
	return nil
}

// finalizeMetrics computes windowed rejection, cost and balance metrics
// from the request log.
func finalizeMetrics(cfg Config, g *graph.Graph, apps []*vnet.App, psi []float64, ar *AlgoResult) {
	var total, rejected int
	perNode := make(map[graph.NodeID]*stats.BalanceSample)
	for i := range ar.Log {
		rec := &ar.Log[i]
		if rec.Arrive < cfg.MeasureFrom || rec.Arrive >= cfg.MeasureTo {
			continue
		}
		total++
		bs := perNode[rec.Ingress]
		if bs == nil {
			bs = &stats.BalanceSample{RejectedPerApp: make([]float64, len(apps))}
			perNode[rec.Ingress] = bs
		}
		bs.Requests++
		isRejected := !rec.Accepted || rec.Preempted
		if isRejected {
			rejected++
			bs.RejectedPerApp[rec.App]++
			ar.RejectionCost += psi[rec.App] * rec.Demand * float64(rec.Duration)
		}
	}
	if total > 0 {
		ar.RejectionRate = float64(rejected) / float64(total)
	}
	// Canonical node order keeps the balance index bit-stable across
	// runs (map iteration would reorder the weighted sum).
	nodes := make([]graph.NodeID, 0, len(perNode))
	for v := range perNode {
		nodes = append(nodes, v)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	samples := make([]stats.BalanceSample, 0, len(perNode))
	for _, v := range nodes {
		samples = append(samples, *perNode[v])
	}
	ar.BalanceIndex = stats.BalanceIndex(samples)
	ar.TotalCost = ar.ResourceCost + ar.RejectionCost
}

// MetricSummary aggregates one metric over repeated runs.
type MetricSummary = stats.Summary

// RepeatedResult aggregates repeated runs of one configuration.
type RepeatedResult struct {
	Config Config
	Reps   int
	// Per algorithm: summaries of the headline metrics.
	Rejection map[core.Algorithm]MetricSummary
	Cost      map[core.Algorithm]MetricSummary
	Balance   map[core.Algorithm]MetricSummary
	Runtime   map[core.Algorithm]MetricSummary // seconds
}
