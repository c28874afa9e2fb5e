// Package olive is the public API of this reproduction of "Plan-Based
// Scalable Online Virtual Network Embedding" (ICDCS 2025): the OLIVE
// plan-based online VNE algorithm, the PLAN-VNE offline planner, the
// QUICKG/FULLG/SLOTOFF baselines, the evaluation substrates (topologies,
// applications, workloads), and the simulation harness that regenerates
// every figure of the paper.
//
// The heavy machinery lives in internal packages; this package re-exports
// the stable surface via type aliases and thin wrappers, so downstream
// users never import internal paths.
//
// # Quick start
//
//	g := olive.BuildTopology(olive.TopoIris, 1)
//	rng := rand.New(rand.NewPCG(7, 7))
//	apps := olive.DefaultAppMix(rng)
//
//	// Generate a workload, split into history + online phase.
//	wp := olive.DefaultWorkload().WithUtilization(1.0)
//	trace, _ := olive.GenerateMMPP(g, wp, rng)
//	hist, online, _ := trace.Split(5400)
//
//	// Offline: build the embedding plan from the history.
//	p, _ := olive.BuildPlan(g, apps, hist, olive.DefaultPlanOptions(), rng)
//
//	// Online: run OLIVE over the live requests.
//	eng, _ := olive.NewEngine(g, apps, olive.EngineOptions{Plan: p})
//	for t, slot := range online.PerSlot() {
//		eng.StartSlot(t)
//		for _, r := range slot {
//			out, _ := eng.Process(r)
//			_ = out.Accepted
//		}
//	}
//
// # Parallel experiments
//
// Repeated runs fan out across a deterministic parallel runner: seeds are
// derived from each cell's identity (never from execution order),
// aggregation order is canonical, and with an ArtifactStore attached
// every completed cell is persisted as versioned JSON so interrupted
// sweeps resume instead of recomputing. RunSweep is the entry point; one
// cell of Reps repetitions is a repeated run:
//
//	store, _ := olive.OpenArtifactStore("results")
//	cfg := olive.DefaultSimConfig(olive.TopoIris, 1.0, 1)
//	cells := []olive.SweepCell{{Config: cfg, Reps: 30}}
//	res, _ := olive.RunSweep(cells, olive.RunnerOptions{Store: store, Resume: true})
//
// # Declarative scenarios
//
// Experiments are data: a Scenario describes a grid of simulation cells
// (named axes over the configuration), the reports to render, and the
// repetition policy. Every figure of the paper is a registered Scenario
// (LookupScenario returns one by name); arbitrary user scenarios load
// from JSON and run through the same runner machinery:
//
//	sp, _ := olive.LoadScenario(specFile)
//	tables, _ := olive.RunScenario(sp, olive.SmokeScale())
//	for _, t := range tables {
//		t.Fprint(os.Stdout)
//	}
package olive

import (
	"io"
	"math/rand/v2"

	"github.com/olive-vne/olive/internal/core"
	"github.com/olive-vne/olive/internal/embedder"
	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/plan"
	"github.com/olive-vne/olive/internal/runner"
	"github.com/olive-vne/olive/internal/scenario"
	"github.com/olive-vne/olive/internal/serve"
	"github.com/olive-vne/olive/internal/sim"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
	"github.com/olive-vne/olive/internal/workload"
)

// ---- Substrate network ----

type (
	// Substrate is the physical network: datacenters and links with
	// capacities and per-CU costs.
	Substrate = graph.Graph
	// Node is a substrate datacenter.
	Node = graph.Node
	// Link is a substrate link.
	Link = graph.Link
	// NodeID identifies a substrate node.
	NodeID = graph.NodeID
	// LinkID identifies a substrate link.
	LinkID = graph.LinkID
	// ElementID indexes a substrate element (node or link) in the flat
	// element space used by capacity/residual vectors.
	ElementID = graph.ElementID
	// Tier classifies nodes as edge, transport or core.
	Tier = graph.Tier
	// Path is a substrate path.
	Path = graph.Path
)

// Node tiers.
const (
	TierEdge      = graph.TierEdge
	TierTransport = graph.TierTransport
	TierCore      = graph.TierCore
)

// ---- Topologies (Table II) ----

// TopologyName identifies one of the four evaluation topologies.
type TopologyName = topo.Name

// The four evaluation topologies.
const (
	TopoIris       = topo.Iris
	TopoCittaStudi = topo.CittaStudi
	Topo5GEN       = topo.FiveGEN
	Topo100N150E   = topo.Random100
)

// BuildTopology deterministically constructs a named evaluation topology.
func BuildTopology(name TopologyName, seed uint64) *Substrate {
	return topo.MustBuild(name, seed)
}

// MakeGPUVariant adapts a substrate for the GPU scenario of Fig. 10.
func MakeGPUVariant(g *Substrate, gpuEdgeNodes int, seed uint64) *Substrate {
	return topo.MakeGPUVariant(g, gpuEdgeNodes, seed)
}

// ---- Applications (virtual networks) ----

type (
	// App is a virtual network: a rooted tree of VNFs.
	App = vnet.App
	// VNF is a virtual network function.
	VNF = vnet.VNF
	// VLink is a virtual link.
	VLink = vnet.VLink
	// AppKind names an application family (chain/tree/accelerator/GPU).
	AppKind = vnet.Kind
	// AppParams configures random application generation.
	AppParams = vnet.Params
	// Embedding is an integral mapping of an App onto a Substrate.
	Embedding = vnet.Embedding
)

// Application families.
const (
	KindChain       = vnet.KindChain
	KindTree        = vnet.KindTree
	KindAccelerator = vnet.KindAccelerator
	KindGPU         = vnet.KindGPU
)

// DefaultAppParams returns the Table III application parameters.
func DefaultAppParams() AppParams { return vnet.DefaultParams() }

// DefaultAppMix draws the paper's standard application set: two chains,
// one tree, one accelerator.
func DefaultAppMix(rng *rand.Rand) []*App { return vnet.DefaultMix(vnet.DefaultParams(), rng) }

// GenerateApp draws one application of the given kind.
func GenerateApp(kind AppKind, name string, p AppParams, rng *rand.Rand) *App {
	return vnet.Generate(kind, name, p, rng)
}

// ---- Workloads (Table III traces) ----

type (
	// Request is one online embedding request.
	Request = workload.Request
	// Trace is a time-ordered request sequence.
	Trace = workload.Trace
	// WorkloadParams configures trace generation.
	WorkloadParams = workload.Params
)

// DefaultWorkload returns the Table III workload parameters.
func DefaultWorkload() WorkloadParams { return workload.DefaultParams() }

// GenerateMMPP produces the bursty MMPP trace of §IV-A.
func GenerateMMPP(g *Substrate, p WorkloadParams, rng *rand.Rand) (*Trace, error) {
	return workload.GenerateMMPP(g, p, rng)
}

// ---- Planning (PLAN-VNE, §III-A/B) ----

type (
	// Plan is a PLAN-VNE solution: per-class fractional shares over
	// integral embeddings plus rejection fractions.
	Plan = plan.Plan
	// PlanClass is one aggregate request class (app, ingress, demand).
	PlanClass = plan.Class
	// ClassPlan is the plan of one class.
	ClassPlan = plan.ClassPlan
	// PlanShare is one fractional share of a class plan.
	PlanShare = plan.Share
	// PlanOptions configures plan construction.
	PlanOptions = plan.Options
)

// DefaultPlanOptions returns the paper's plan parameters (P=10 quantiles,
// P̂80 aggregation) with column generation capped at 8 pricing rounds
// (MaxPricingRounds), so a plan need not be the master LP's optimum over
// all columns: most builds on a congested substrate stop at the cap.
func DefaultPlanOptions() PlanOptions { return plan.DefaultOptions() }

// AggregateHistory groups a request history into per-(app, ingress)
// classes with bootstrap-estimated expected demand (§III-A).
func AggregateHistory(hist *Trace, numApps int, alpha float64, bootstrapB int, rng *rand.Rand) ([]PlanClass, error) {
	return plan.Aggregate(hist, numApps, alpha, bootstrapB, rng)
}

// BuildPlan aggregates hist and solves PLAN-VNE.
func BuildPlan(g *Substrate, apps []*App, hist *Trace, opts PlanOptions, rng *rand.Rand) (*Plan, error) {
	return plan.BuildFromHistory(g, apps, hist, opts, rng)
}

// BuildPlanFromClasses solves PLAN-VNE over pre-computed classes.
func BuildPlanFromClasses(g *Substrate, apps []*App, classes []PlanClass, opts PlanOptions) (*Plan, error) {
	return plan.Build(g, apps, classes, opts)
}

// ---- Online embedding (OLIVE, §III-C) ----

type (
	// Engine is the OLIVE online embedding engine (QUICKG/FULLG when
	// configured without a plan).
	Engine = core.Engine
	// EngineOptions configures an Engine: its plan (none means QUICKG),
	// the exact FULLG fallback, and the borrowing and preemption
	// ablation switches. FULLG's branch-out budget is fixed.
	EngineOptions = core.Options
	// Outcome is the result of processing one request.
	Outcome = core.Outcome
	// Algorithm names one of the evaluated algorithms.
	Algorithm = core.Algorithm
)

// The evaluated algorithms.
const (
	OLIVE   = core.AlgoOLIVE
	QUICKG  = core.AlgoQuickG
	FULLG   = core.AlgoFullG
	SLOTOFF = core.AlgoSlotOff
)

// NewEngine builds an online embedding engine over a fresh substrate
// state.
func NewEngine(g *Substrate, apps []*App, opts EngineOptions) (*Engine, error) {
	return core.NewEngine(g, apps, opts)
}

// ---- Exact embedding (FULLG's oracle) ----

// MinCostEmbedding returns the cost-minimal integral embedding of app with
// its root pinned at ingress, ignoring capacities. ok is false when no
// placement satisfies the η exclusions or ingress is not a node of g.
func MinCostEmbedding(g *Substrate, app *App, ingress NodeID) (*Embedding, float64, bool) {
	return embedder.NewOracle(g, embedder.CostPrices(g)).MinCostEmbed(app, ingress)
}

// ---- Simulation & experiments (§IV) ----

type (
	// SimConfig describes one simulation run.
	SimConfig = sim.Config
	// RepeatedResult aggregates repeated runs with 95% CIs.
	RepeatedResult = sim.RepeatedResult
	// ExperimentScale trades fidelity for runtime in the experiment
	// generators.
	ExperimentScale = sim.Scale
	// ResultTable is a printable experiment result.
	ResultTable = sim.Table
)

// DefaultSimConfig returns the paper-scale configuration for one topology
// and utilization.
func DefaultSimConfig(t TopologyName, util float64, seed uint64) SimConfig {
	return sim.DefaultConfig(t, util, seed)
}

// SmokeScale returns a reduced experiment scale for quick regeneration.
func SmokeScale() ExperimentScale { return sim.SmokeScale() }

// ---- Parallel experiment runner ----

type (
	// RunnerOptions configures the parallel experiment runner: worker
	// count, cancellation context, artifact store and progress
	// reporting. The zero value runs on GOMAXPROCS workers.
	RunnerOptions = sim.RunnerOptions
	// SweepCell is one aggregation unit of a sweep: a configuration
	// repeated Reps times and summarized with 95% CIs.
	SweepCell = sim.SweepCell
	// ArtifactStore persists completed sweep cells as versioned JSON
	// for resumable sweeps.
	ArtifactStore = runner.Store
	// ProgressReporter observes a sweep's per-cell progress.
	ProgressReporter = runner.Reporter
)

// OpenArtifactStore opens (creating if needed) an artifact store
// directory.
func OpenArtifactStore(dir string) (*ArtifactStore, error) { return runner.OpenStore(dir) }

// NewProgressReporter returns a reporter that prints per-cell progress
// with a running ETA to w.
func NewProgressReporter(w io.Writer) ProgressReporter { return runner.NewTextReporter(w) }

// RunSweep fans the cells' repetitions out across the runner's worker
// pool and returns one aggregated result per cell, in cell order. The
// deterministic metrics are identical to sequential execution for any
// worker count: per-cell seeds are positional (Config.Seed + rep) and
// aggregation order is canonical, not arrival-ordered.
func RunSweep(cells []SweepCell, opts RunnerOptions) ([]*RepeatedResult, error) {
	return sim.RunSweep(cells, opts)
}

// ---- Declarative scenarios ----

type (
	// Scenario is a declarative, JSON-serializable experiment spec:
	// named axes over the simulation configuration plus report
	// definitions. Every paper figure is a registered Scenario; user
	// scenarios load from JSON and run through the same machinery.
	Scenario = scenario.Spec
	// ScenarioPatch is a partial simulation configuration: the JSON
	// object a spec writes, e.g. `{"topology":"iris","utilization":1.4}`.
	// Keys it leaves out inherit the base value. Unknown keys and invalid
	// values fail when RunScenario binds the spec.
	ScenarioPatch = scenario.Patch
	// ScenarioAxis is one swept dimension of a Scenario's grid.
	ScenarioAxis = scenario.Axis
	// ScenarioAxisValue is one labeled point of an axis.
	ScenarioAxisValue = scenario.AxisValue
	// ScenarioReport declares one output table over the expanded grid.
	ScenarioReport = scenario.Report
	// ScenarioColumn is one value column of a ScenarioReport.
	ScenarioColumn = scenario.Column
)

// RunScenario executes one scenario at the given scale — the scale
// supplies trace lengths, repetitions, the utilization sweep and the
// runner options — and returns its tables, one per report.
func RunScenario(sp *Scenario, s ExperimentScale) ([]*ResultTable, error) {
	return sim.RunScenario(sp, s)
}

// LoadScenario reads and validates a JSON scenario spec.
func LoadScenario(r io.Reader) (*Scenario, error) { return scenario.Load(r) }

// LookupScenario returns a deep copy of a registered scenario, so the
// caller may parameterize it freely.
func LookupScenario(name string) (*Scenario, bool) { return scenario.Lookup(name) }

// ---- Online serving (vnesimd) ----

type (
	// Server is the online embedding service: a sharded engine pool
	// behind an HTTP/JSON API. Each shard owns an independent Engine
	// over 1/N of every element's capacity; a deterministic
	// ingress→shard router serializes all requests of one ingress onto
	// one shard. See cmd/vnesimd and the README "Serving" section for
	// the daemon and its wire format.
	Server = serve.Server
	// ServerOptions configures a Server: shard count, algorithm, slot
	// duration, the deterministic virtual-clock mode CI leans on, and
	// the nested ServerLimits / ServerReplan / ServerObservability
	// groups.
	ServerOptions = serve.Options
	// ServerLimits groups the admission-control knobs: per-shard queue
	// depth (full queues answer 429) and the token-bucket rate limits.
	ServerLimits = serve.Limits
	// ServerReplan configures live adaptive replanning: the rolling
	// request-history depth, the rebuild cadence and the rebuild seed.
	// Rebuilds solve under DefaultPlanOptions. See the README
	// "Replanning" section.
	ServerReplan = serve.Replan
	// ServerObservability groups the metrics registry and access-log
	// wiring.
	ServerObservability = serve.Observability
)

// NewServer builds an online embedding server over g and apps. Expose its
// Handler on an http.Server; stop it with Drain (new requests get 503,
// admitted ones still receive their decision).
func NewServer(g *Substrate, apps []*App, opts ServerOptions) (*Server, error) {
	return serve.New(g, apps, opts)
}
