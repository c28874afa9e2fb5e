// Package plan implements the offline half of the paper's contribution:
// time-aggregation of the request history into per-(application, ingress)
// classes (§III-A) and the PLAN-VNE linear program with rejection quantiles
// (§III-B, Fig. 4), solved by Dantzig–Wolfe column generation over integral
// candidate embeddings priced by the exact embedder.
//
// The resulting Plan decomposes each class's planned allocation into
// shares — (integral embedding, fraction) pairs — the share-decomposed form
// of the y_s^q(r̃) variables of Fig. 4 (see DESIGN.md §4). OLIVE consumes
// the shares as its residual plan.
package plan

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"

	"github.com/olive-vne/olive/internal/embedder"
	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/lp"
	"github.com/olive-vne/olive/internal/stats"
	"github.com/olive-vne/olive/internal/substrate"
	"github.com/olive-vne/olive/internal/vnet"
	"github.com/olive-vne/olive/internal/workload"
)

// Class is one aggregate request r̃: all history requests sharing an
// application and an ingress node, with the expected aggregated demand
// d(r̃) estimated from the history.
type Class struct {
	// App indexes the run's application set.
	App int
	// Ingress is the shared user location v(r̃).
	Ingress graph.NodeID
	// Demand is d(r̃): the bootstrap-estimated α-percentile of the
	// per-slot active demand of the class (Eq. 6).
	Demand float64
}

// Check returns why c cannot be planned over g with numApps applications
// — an app outside [0, numApps), an ingress that is not one of g's nodes,
// or a demand that is not finite and positive — and nil if it can. Build
// checks its classes with it.
func (c Class) Check(g *graph.Graph, numApps int) error {
	if c.App < 0 || c.App >= numApps {
		return fmt.Errorf("class references app %d of %d", c.App, numApps)
	}
	if c.Ingress < 0 || int(c.Ingress) >= g.NumNodes() {
		return fmt.Errorf("class (%d,%d) ingress is not one of the substrate's %d nodes",
			c.App, c.Ingress, g.NumNodes())
	}
	// Written to catch NaN too: a non-finite demand makes a non-finite
	// column cost, which the LP refuses.
	if !(c.Demand > 0) || math.IsInf(c.Demand, 1) {
		return fmt.Errorf("class (%d,%d) has demand %g, want finite and positive", c.App, c.Ingress, c.Demand)
	}
	return nil
}

// Share is one fractional slice of a class's planned allocation: Fraction
// of the class demand is planned onto the integral embedding E.
type Share struct {
	E        *vnet.Embedding
	Fraction float64
}

// ClassPlan is the plan for one class: its shares and the fraction the
// plan itself rejects (Σ_p y_p of Fig. 4).
type ClassPlan struct {
	Class    Class
	Shares   []Share
	Rejected float64
}

// PlannedDemand returns the demand volume the plan guarantees this class:
// d(r̃)·Σφ. This is the "guaranteed demand" threshold of Fig. 12.
func (cp *ClassPlan) PlannedDemand() float64 {
	var f float64
	for _, s := range cp.Shares {
		f += s.Fraction
	}
	return cp.Class.Demand * f
}

// Plan is a complete PLAN-VNE solution.
type Plan struct {
	Classes []ClassPlan
	// Obj is the LP objective (resource cost + quantile rejection cost).
	Obj float64
	// Iterations counts simplex pivots summed over every master solve of
	// the Build.
	Iterations int
	// PricingRounds counts column-generation rounds performed.
	PricingRounds int
	// Bound is the best Lagrangian lower bound on the full master's
	// optimum seen over the Build's pricing rounds: z_RMP + Σ_c min(0,
	// D_c·price_c − σ_c), from the exact oracle's prices (Lasdon 1970;
	// Lübbecke & Desrosiers 2005). It is -Inf when no round priced the
	// master (MaxPricingRounds 0).
	Bound float64
	// Gap is (Obj − Bound)/|Obj|: how far Obj can be above the full
	// master's optimum, relative to Obj (+Inf with no Bound).
	Gap float64
	// Converged reports that the last pricing round found no improving
	// column, so Obj is the full master's optimum; false when the round
	// cap ended the Build.
	Converged bool

	index map[classKey]int
}

type classKey struct {
	app     int
	ingress graph.NodeID
}

// Lookup returns the plan of the class (app, ingress), or nil if the
// history contained no such class.
func (p *Plan) Lookup(app int, ingress graph.NodeID) *ClassPlan {
	if i, ok := p.LookupIndex(app, ingress); ok {
		return &p.Classes[i]
	}
	return nil
}

// LookupIndex returns the index into Classes of the class (app, ingress);
// ok is false if the plan has no such class. A Plan not made by Build has
// no index and is scanned from the end, so a later class wins, as it
// does in buildIndex.
func (p *Plan) LookupIndex(app int, ingress graph.NodeID) (int, bool) {
	if p == nil {
		return 0, false
	}
	if p.index != nil {
		i, ok := p.index[classKey{app, ingress}]
		return i, ok
	}
	for i := len(p.Classes) - 1; i >= 0; i-- {
		if c := p.Classes[i].Class; c.App == app && c.Ingress == ingress {
			return i, true
		}
	}
	return 0, false
}

// Empty reports whether the plan has no classes (QUICKG runs OLIVE with an
// empty plan).
func (p *Plan) Empty() bool { return p == nil || len(p.Classes) == 0 }

// buildIndex (re)builds the lookup index.
func (p *Plan) buildIndex() {
	p.index = make(map[classKey]int, len(p.Classes))
	for i, c := range p.Classes {
		p.index[classKey{c.Class.App, c.Class.Ingress}] = i
	}
}

// Aggregate groups the request history by (application, ingress) and
// estimates each class's expected aggregated demand as the bootstrap
// α-percentile of its per-slot active demand (Eqs. 5–6). Classes whose
// estimate is zero are dropped.
func Aggregate(hist *workload.Trace, numApps int, alpha float64, bootstrapB int, rng *rand.Rand) ([]Class, error) {
	if hist == nil || hist.Slots <= 0 {
		return nil, errors.New("plan: empty history")
	}
	return aggregate(hist, numApps, alpha, bootstrapB, rng, hist.Slots, 0, hist.Slots)
}

// aggregate is Aggregate over the history slots t whose cycle position
// t mod period lies in [lo, hi): the whole history when period is its
// length, one window of the demand cycle for BuildWindowed.
func aggregate(hist *workload.Trace, numApps int, alpha float64, bootstrapB int, rng *rand.Rand, period, lo, hi int) ([]Class, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("plan: percentile α=%g outside (0,1]", alpha)
	}
	diffs, err := demandDeltas(hist, numApps)
	if err != nil {
		return nil, err
	}
	// Consume the rng in canonical class order, not map order: each
	// class's bootstrap must draw the same stream no matter how the map
	// iterates, or plans (and everything downstream) vary run to run.
	keys := make([]classKey, 0, len(diffs))
	for k := range diffs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].app != keys[j].app {
			return keys[i].app < keys[j].app
		}
		return keys[i].ingress < keys[j].ingress
	})
	classes := make([]Class, 0, len(diffs))
	// One series buffer and one bootstrap scratch serve every class:
	// BootstrapQuantileWith only reads the series and does not retain it.
	series := make([]float64, hist.Slots)
	var bsc stats.BootstrapScratch
	for _, k := range keys {
		activeDemand(diffs[k], series)
		// Keep the window's slots, compacted in place: slot t moves
		// to n ≤ t, which has already been read.
		n := 0
		for t, d := range series {
			if pos := t % period; pos >= lo && pos < hi {
				series[n] = d
				n++
			}
		}
		est, err := stats.BootstrapQuantileWith(&bsc, series[:n], alpha, bootstrapB, rng)
		if err != nil {
			return nil, fmt.Errorf("plan: class (%d,%d): %w", k.app, k.ingress, err)
		}
		if est.Estimate <= 0 {
			continue
		}
		classes = append(classes, Class{App: k.app, Ingress: k.ingress, Demand: est.Estimate})
	}
	sortClasses(classes)
	return classes, nil
}

// demandDelta is the change in one class's active demand and active
// request count at the start of one slot.
type demandDelta struct {
	demand float64
	active int
}

// demandDeltas records every request of hist as an arrival and a
// departure (clipped to the history's end) in its class's delta row,
// one entry per slot plus one. olive.Aggregate and the windowed builds
// hand over histories nobody validated, so a request that references an
// app outside [0, numApps), arrives outside the history or lasts less
// than a slot is an error, not an index out of range.
func demandDeltas(hist *workload.Trace, numApps int) (map[classKey][]demandDelta, error) {
	diffs := make(map[classKey][]demandDelta)
	for _, r := range hist.Requests {
		if r.App < 0 || r.App >= numApps {
			return nil, fmt.Errorf("plan: request %d references app %d of %d", r.ID, r.App, numApps)
		}
		if r.Arrive < 0 || r.Arrive >= hist.Slots {
			return nil, fmt.Errorf("plan: request %d arrives at %d outside [0,%d)", r.ID, r.Arrive, hist.Slots)
		}
		if r.Duration < 1 {
			return nil, fmt.Errorf("plan: request %d has duration %d < 1", r.ID, r.Duration)
		}
		k := classKey{app: r.App, ingress: r.Ingress}
		d := diffs[k]
		if d == nil {
			d = make([]demandDelta, hist.Slots+1)
			diffs[k] = d
		}
		d[r.Arrive].demand += r.Demand
		d[r.Arrive].active++
		dep := r.Departs()
		if dep > hist.Slots {
			dep = hist.Slots
		}
		d[dep].demand -= r.Demand
		d[dep].active--
	}
	return diffs, nil
}

// activeDemand fills series with the running sums of d: d(r̃,t), the
// class's active demand in each slot. A slot with no active request
// reads exactly 0, where the running sum holds the rounding residue of
// the arrivals and departures before it (≈ 1e-15, a positive "demand"
// the bootstrap could return as a class's estimate).
func activeDemand(d []demandDelta, series []float64) {
	var acc float64
	active := 0
	for t := range series {
		acc += d[t].demand
		active += d[t].active
		if active == 0 {
			series[t] = 0
		} else {
			series[t] = acc
		}
	}
}

func sortClasses(cs []Class) {
	// Deterministic order (map iteration above is random): by ingress,
	// then app.
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && less(cs[j], cs[j-1]); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

func less(a, b Class) bool {
	if a.Ingress != b.Ingress {
		return a.Ingress < b.Ingress
	}
	return a.App < b.App
}

// Options configures plan construction.
type Options struct {
	// Quantiles is P, the rejection-quantile count (10 in the paper;
	// Fig. 11 sweeps 1–50). Must be ≥ 1.
	Quantiles int
	// Alpha is the demand percentile for aggregation (0.8).
	Alpha float64
	// BootstrapB is the bootstrap replicate count for P̂α.
	BootstrapB int
	// InitialCandidates is the number of collocated seed columns per
	// class.
	InitialCandidates int
	// MaxPricingRounds bounds column generation (0 disables pricing —
	// the plan is built from the seed columns only; the ablation bench
	// uses this).
	MaxPricingRounds int
}

// DefaultOptions returns the paper's plan parameters.
func DefaultOptions() Options {
	return Options{
		Quantiles:         10,
		Alpha:             0.8,
		BootstrapB:        100,
		InitialCandidates: 4,
		MaxPricingRounds:  8,
	}
}

// DefaultRejectionFactor returns the paper's ψ for one application: the
// cost of allocating each virtual element on the most expensive substrate
// element of its kind (§IV-B "Request embedding cost").
func DefaultRejectionFactor(g *graph.Graph, app *vnet.App) float64 {
	var maxNode, maxLink float64
	for _, n := range g.Nodes() {
		if n.Cost > maxNode {
			maxNode = n.Cost
		}
	}
	for _, l := range g.Links() {
		if l.Cost > maxLink {
			maxLink = l.Cost
		}
	}
	return app.TotalNodeSize()*maxNode + app.TotalLinkSize()*maxLink
}

// Solver solves PLAN-VNE instances over one substrate and application
// set, carrying warm substrate state across solves: a cost-price state
// (whose path cache and collocated-embedding memos the column seeding
// reuses) and a pricing state whose link weights are re-derived in place
// each Dantzig–Wolfe round instead of rebuilding an oracle. Repeated
// solves — SLOTOFF's per-slot re-optimization, windowed plans — should
// share one Solver. Not safe for concurrent use.
type Solver struct {
	g    *graph.Graph
	apps []*vnet.App

	seedOracle  *embedder.Oracle
	priceState  *substrate.State
	priceOracle *embedder.Oracle
	dualBuf     []float64
	priceBuf    embedder.Prices

	// pool carries each class's solution-support embeddings (the basic
	// columns of the last master) into the next Build's seed set, so a
	// Build starts from the columns its predecessor priced in rather than
	// from the collocated seeds alone. SLOTOFF's per-slot masters get two
	// pricing rounds each; the pool is what brings them close to the
	// per-slot optimum. No basis crosses Builds: every Build's first
	// master solve is cold (consecutive masters differ in their demands,
	// so the previous vertex is almost never feasible).
	pool map[classKey][]*vnet.Embedding
}

// maxDemandSpan is the largest ratio of class demands one master can
// plan: 1/feasTol of package lp. The master scales each class's capacity
// coefficients by its demand, so beyond this span the smaller class's
// whole load on a shared capacity row lies inside that row's
// feasibility tolerance, and its fractions are no longer held to
// anything.
const maxDemandSpan = 1e7

// checkDemandSpan refuses a class set whose largest demand exceeds
// maxDemandSpan times its smallest, naming both classes.
func checkDemandSpan(classes []Class) error {
	lo, hi := classes[0], classes[0]
	for _, c := range classes[1:] {
		if c.Demand < lo.Demand {
			lo = c
		}
		if c.Demand > hi.Demand {
			hi = c
		}
	}
	if hi.Demand > maxDemandSpan*lo.Demand {
		return fmt.Errorf("plan: class (%d,%d) has demand %g, more than %g times the demand %g of class (%d,%d)",
			hi.App, hi.Ingress, hi.Demand, maxDemandSpan, lo.Demand, lo.App, lo.Ingress)
	}
	return nil
}

// checkDemandScale refuses a class whose demand exceeds maxDemandSpan
// times the largest element capacity of g. No element can carry more
// than about 1/maxDemandSpan of such a class, so its fractions' feasible
// range lies inside lp's bound tolerance, and a vertex whose fractions
// all sit within that tolerance of 0 can still overload a capacity row
// many times over.
func checkDemandScale(g *graph.Graph, classes []Class) error {
	maxCap := 0.0
	for e := range g.NumElements() {
		maxCap = math.Max(maxCap, g.ElementCap(graph.ElementID(e)))
	}
	for _, c := range classes {
		if c.Demand > maxDemandSpan*maxCap {
			return fmt.Errorf("plan: class (%d,%d) has demand %g, more than %g times the largest element capacity %g",
				c.App, c.Ingress, c.Demand, maxDemandSpan, maxCap)
		}
	}
	return nil
}

// NewSolver returns a Solver for the given substrate and applications.
func NewSolver(g *graph.Graph, apps []*vnet.App) *Solver {
	return NewSolverOn(embedder.ForState(substrate.New(g)), apps)
}

// NewSolverOn returns a Solver whose column seeding runs over an existing
// cost-price oracle — e.g. the one a simulation cell's engines already
// share — so its warm path trees and collocated-candidate memos are
// reused rather than rebuilt. The oracle's state prices must be the
// element costs; the solver never modifies them (pricing rounds use a
// private state).
func NewSolverOn(seedOracle *embedder.Oracle, apps []*vnet.App) *Solver {
	g := seedOracle.State().Graph()
	ps := substrate.New(g)
	return &Solver{
		g: g, apps: apps,
		seedOracle:  seedOracle,
		priceState:  ps,
		priceOracle: embedder.ForState(ps),
	}
}

// Build solves PLAN-VNE for the given classes and returns the plan.
func Build(g *graph.Graph, apps []*vnet.App, classes []Class, opts Options) (*Plan, error) {
	return NewSolver(g, apps).Build(classes, opts)
}

// Build solves PLAN-VNE for the given classes and returns the plan,
// reusing the solver's warm substrate state.
func (s *Solver) Build(classes []Class, opts Options) (*Plan, error) {
	g, apps := s.g, s.apps
	if len(classes) == 0 {
		counters.builds.Add(1)
		p := &Plan{}
		p.buildIndex()
		return p, nil
	}
	if opts.Quantiles < 1 {
		return nil, errors.New("plan: Quantiles must be ≥ 1")
	}
	// Zero seed columns is legal: pricing generates the columns.
	if opts.InitialCandidates < 0 {
		return nil, fmt.Errorf("plan: InitialCandidates is %d, want ≥ 0", opts.InitialCandidates)
	}
	for _, c := range classes {
		if err := c.Check(g, len(apps)); err != nil {
			return nil, fmt.Errorf("plan: %w", err)
		}
	}
	if err := checkDemandSpan(classes); err != nil {
		return nil, err
	}
	if err := checkDemandScale(g, classes); err != nil {
		return nil, err
	}

	m := newMaster(g, apps, classes, opts)
	m.solver = s
	// The master dies with this call; recycle its LP scratch memory so
	// the next Build (this solver's or anyone's) skips the warm-up.
	defer m.prob.ReleaseWorkspace()
	if err := m.seedColumns(); err != nil {
		return nil, err
	}

	// The first solve is cold; each pricing round warm-starts from the
	// round before it (indices are stable — the master only appends).
	var warm *lp.Basis
	var sol *lp.Solution
	rounds, pivots := 0, 0
	bound, converged := math.Inf(-1), false
	for {
		var err error
		counters.masterSolves.Add(1)
		if warm != nil {
			counters.warmAttempts.Add(1)
			sol, err = m.prob.SolveFrom(warm)
		} else {
			sol, err = m.prob.Solve()
		}
		if err != nil {
			return nil, fmt.Errorf("plan: master LP: %w", err)
		}
		pivots += sol.Iterations
		if sol.WarmStarted {
			counters.warmHits.Add(1)
		}
		if sol.Status != lp.Optimal {
			return nil, fmt.Errorf("plan: master LP %v (the rejection quantiles should make it always feasible)", sol.Status)
		}
		if rounds >= opts.MaxPricingRounds {
			break
		}
		added, lagr := m.price(sol)
		rounds++
		bound = math.Max(bound, sol.Obj+lagr)
		if added == 0 {
			converged = true
			break
		}
		warm = sol.Basis()
	}
	p := &Plan{
		Obj: sol.Obj, Iterations: pivots, PricingRounds: rounds,
		Bound: bound, Gap: relGap(sol.Obj, bound), Converged: converged,
	}
	p.Classes = m.extract(sol)
	// lp refuses a vertex that breaks a bound or a row of the master, but
	// only to its own magnitude-scaled tolerance, and a badly scaled
	// master (class demands many orders of magnitude apart) can still
	// yield fractions or loads Validate refuses. Such a solution is an
	// error, never a plan.
	if err := p.Validate(g); err != nil {
		return nil, fmt.Errorf("%w (master LP solution)", err)
	}
	s.capturePool(m, sol)

	counters.builds.Add(1)
	p.buildIndex()
	return p, nil
}

// BuildFromHistory aggregates hist and builds the plan in one call.
func BuildFromHistory(g *graph.Graph, apps []*vnet.App, hist *workload.Trace, opts Options, rng *rand.Rand) (*Plan, error) {
	return NewSolver(g, apps).BuildFromHistory(hist, opts, rng)
}

// BuildFromHistory aggregates hist and builds the plan on this solver,
// so successive rebuilds over rolling histories — the serving layer's
// online replanner — reuse the warm substrate state and solution-support
// column pool the way repeated Build calls do.
func (s *Solver) BuildFromHistory(hist *workload.Trace, opts Options, rng *rand.Rand) (*Plan, error) {
	classes, err := Aggregate(hist, len(s.apps), opts.Alpha, opts.BootstrapB, rng)
	if err != nil {
		return nil, err
	}
	return s.Build(classes, opts)
}

// master is the column-generation master problem.
type master struct {
	g       *graph.Graph
	apps    []*vnet.App
	classes []Class
	opts    Options
	solver  *Solver
	psi     []float64 // ψ per class

	prob    *lp.Problem
	elemRow map[graph.ElementID]int // lazily created capacity rows
	convRow []int                   // convexity row per class

	// cols tracks structural embedding columns: class index, embedding.
	colClass []int
	colEmb   []*vnet.Embedding
	sigs     map[string]bool // dedup of (class, embedding) columns

	// quantile column index range per class.
	quantCols [][]int
}

func newMaster(g *graph.Graph, apps []*vnet.App, classes []Class, opts Options) *master {
	m := &master{
		g: g, apps: apps, classes: classes, opts: opts,
		prob:    lp.NewProblem(),
		elemRow: make(map[graph.ElementID]int),
		sigs:    make(map[string]bool),
	}
	m.psi = make([]float64, len(classes))
	for i, c := range classes {
		m.psi[i] = DefaultRejectionFactor(g, apps[c.App])
	}
	// Convexity rows and quantile columns.
	m.convRow = make([]int, len(classes))
	m.quantCols = make([][]int, len(classes))
	P := opts.Quantiles
	for i, c := range classes {
		m.convRow[i] = m.prob.AddRow(lp.EQ, 1)
		for p := 1; p <= P; p++ {
			cost := m.psi[i] * c.Demand * float64(p)
			v := m.prob.MustAddVar(cost, 0, 1/float64(P), []lp.Entry{{Row: m.convRow[i], Coef: 1}})
			m.quantCols[i] = append(m.quantCols[i], v)
		}
	}
	return m
}

// rowFor returns (creating on demand) the capacity row of element e.
func (m *master) rowFor(e graph.ElementID) int {
	if r, ok := m.elemRow[e]; ok {
		return r
	}
	r := m.prob.AddRow(lp.LE, m.g.ElementCap(e))
	m.elemRow[e] = r
	return r
}

// addColumn inserts the embedding as a candidate for class ci; returns
// false if an identical column already exists.
func (m *master) addColumn(ci int, e *vnet.Embedding) bool {
	sig := strconv.Itoa(ci) + "|" + embSignature(e)
	if m.sigs[sig] {
		return false
	}
	m.sigs[sig] = true
	d := m.classes[ci].Demand
	entries := make([]lp.Entry, 0, 1+len(e.UnitUse()))
	entries = append(entries, lp.Entry{Row: m.convRow[ci], Coef: 1})
	for _, u := range e.UnitUse() {
		entries = append(entries, lp.Entry{Row: m.rowFor(u.Elem), Coef: u.Amount * d})
	}
	// No upper bound: the class's convexity row with x, s ≥ 0 already
	// holds x ≤ 1, and an explicit bound only adds bound flips and
	// at-upper columns whose negative reduced costs keep Plan.Bound from
	// closing.
	m.prob.MustAddVar(e.UnitCost()*d, 0, math.Inf(1), entries)
	m.colClass = append(m.colClass, ci)
	m.colEmb = append(m.colEmb, e)
	return true
}

// capturePool replaces the Solver's column pool with the solution
// support of a solved master: its basic embedding columns (they have no
// upper bound, so a nonbasic one sits at 0), for the next Build's seed
// set. The pool is rebuilt per Build, so it stays bounded by one
// master's support size.
func (s *Solver) capturePool(m *master, sol *lp.Solution) {
	b := sol.Basis()
	if b == nil {
		return
	}
	base := 0
	for i := range m.quantCols {
		base += len(m.quantCols[i])
	}
	s.pool = make(map[classKey][]*vnet.Embedding)
	for k, ci := range m.colClass {
		if b.Vars[base+k] != lp.StatusBasic {
			continue
		}
		c := m.classes[ci]
		key := classKey{c.App, c.Ingress}
		s.pool[key] = append(s.pool[key], m.colEmb[k])
	}
}

func embSignature(e *vnet.Embedding) string {
	// strconv.AppendInt into one grown buffer: this runs per candidate
	// column per pricing round, where fmt boxing showed up in profiles.
	buf := make([]byte, 0, 8*len(e.NodeMap)+16*len(e.PathMap))
	for _, n := range e.NodeMap {
		buf = append(buf, 'n')
		buf = strconv.AppendInt(buf, int64(n), 10)
		buf = append(buf, ',')
	}
	for _, p := range e.PathMap {
		for _, l := range p.Links {
			buf = append(buf, 'l')
			buf = strconv.AppendInt(buf, int64(l), 10)
			buf = append(buf, ',')
		}
		buf = append(buf, ';')
	}
	return string(buf)
}

// seedColumns creates the initial candidate columns: the k cheapest
// collocated embeddings plus the exact min-cost embedding, per class.
// The solver's cost-price oracle memoizes collocated candidates, so
// repeated solves over one substrate (SLOTOFF) seed without rebuilding
// them.
func (m *master) seedColumns() error {
	oracle := m.solver.seedOracle
	seeded := 0
	for ci, c := range m.classes {
		app := m.apps[c.App]
		// The previous Build's solution support first (see
		// Solver.pool).
		for _, e := range m.solver.pool[classKey{c.App, c.Ingress}] {
			if m.addColumn(ci, e) {
				seeded++
			}
		}
		for _, e := range oracle.KCheapestCollocated(app, c.Ingress, m.opts.InitialCandidates) {
			if m.addColumn(ci, e) {
				seeded++
			}
		}
		if e, _, ok := oracle.MinCostEmbed(app, c.Ingress); ok {
			if m.addColumn(ci, e) {
				seeded++
			}
		}
	}
	if seeded == 0 {
		return errors.New("plan: no class admits any embedding (all placements excluded)")
	}
	return nil
}

// relGap returns (obj − bound)/|obj|, and 0 when the two are equal.
func relGap(obj, bound float64) float64 {
	if obj == bound {
		return 0
	}
	return (obj - bound) / math.Abs(obj)
}

// price runs the Dantzig–Wolfe pricing round: the exact oracle (a
// min-cost embed under dual-adjusted prices) prices every class once,
// and each embedding whose reduced cost d·price − σ is negative joins
// the master. A round that adds nothing therefore certifies the master
// optimal. Returns the number of columns added and Σ_c min(0, d·price −
// σ), which added to the master's objective bounds the full master's
// optimum from below (see Plan.Bound). The dual-adjusted prices
// are written into the solver's pricing state in place; its path cache
// invalidates (and its tree buffers are reused) only when link duals
// actually moved.
func (m *master) price(sol *lp.Solution) (added int, lagr float64) {
	s := m.solver
	if cap(s.dualBuf) < m.g.NumElements() {
		s.dualBuf = make([]float64, m.g.NumElements())
	}
	elemDual := s.dualBuf[:m.g.NumElements()]
	for i := range elemDual {
		elemDual[i] = 0
	}
	for e, row := range m.elemRow {
		elemDual[e] = sol.Dual[row]
	}
	s.priceBuf = embedder.AdjustedPricesInto(s.priceBuf, m.g, elemDual)
	s.priceState.SetPrices(s.priceBuf)
	const tol = 1e-6
	for ci, c := range m.classes {
		counters.priceOracleCalls.Add(1)
		e, price, ok := s.priceOracle.MinCostEmbed(m.apps[c.App], c.Ingress)
		if !ok {
			continue
		}
		d := c.Demand*price - sol.Dual[m.convRow[ci]]
		lagr += math.Min(0, d)
		if d < -tol && m.addColumn(ci, e) {
			added++
		}
	}
	return added, lagr
}

// extract reads the optimal basis into per-class plans.
func (m *master) extract(sol *lp.Solution) []ClassPlan {
	const eps = 1e-7
	plans := make([]ClassPlan, len(m.classes))
	for i, c := range m.classes {
		plans[i].Class = c
		for _, qc := range m.quantCols[i] {
			plans[i].Rejected += sol.X[qc]
		}
	}
	// Embedding columns follow the quantile columns in creation order;
	// their variable indices are len(quantCols all) + k. Track via the
	// LP indices implicitly: quantile vars were created first, so
	// structural embedding column k has index base+k.
	base := 0
	for i := range m.quantCols {
		base += len(m.quantCols[i])
	}
	for k, ci := range m.colClass {
		frac := sol.X[base+k]
		if frac > eps {
			plans[ci].Shares = append(plans[ci].Shares, Share{E: m.colEmb[k], Fraction: frac})
		}
	}
	// Normalize tiny numerical drift: clamp fractions into [0,1].
	for i := range plans {
		var tot float64
		for j := range plans[i].Shares {
			if plans[i].Shares[j].Fraction > 1 {
				plans[i].Shares[j].Fraction = 1
			}
			tot += plans[i].Shares[j].Fraction
		}
		if tot > 1 {
			scale := 1 / tot
			for j := range plans[i].Shares {
				plans[i].Shares[j].Fraction *= scale
			}
		}
		if plans[i].Rejected < 0 {
			plans[i].Rejected = 0
		}
		if plans[i].Rejected > 1 {
			plans[i].Rejected = 1
		}
	}
	return plans
}

// TotalPlannedLoad returns the load the plan places on every substrate
// element (CU, per-slot steady state) — used by validation and
// diagnostics.
func (p *Plan) TotalPlannedLoad(numElements int) []float64 {
	load := make([]float64, numElements)
	for _, cp := range p.Classes {
		for _, s := range cp.Shares {
			// Apply subtracts usage from a residual vector; applying a
			// negated demand accumulates positive load.
			s.E.Apply(load, -s.Fraction*cp.Class.Demand)
		}
	}
	return load
}

// Validate checks plan invariants against the substrate: share fractions
// and the rejected share in [0,1] with Σφ + rejected ≤ 1+ε per class, and
// total planned load within capacity.
func (p *Plan) Validate(g *graph.Graph) error {
	const eps = 1e-5
	for _, cp := range p.Classes {
		if !(cp.Rejected >= -eps && cp.Rejected <= 1+eps) {
			return fmt.Errorf("plan: class (%d,%d) rejected share %g outside [0,1]",
				cp.Class.App, cp.Class.Ingress, cp.Rejected)
		}
		var f float64
		for _, s := range cp.Shares {
			if !(s.Fraction >= -eps && s.Fraction <= 1+eps) {
				return fmt.Errorf("plan: class (%d,%d) share fraction %g outside [0,1]",
					cp.Class.App, cp.Class.Ingress, s.Fraction)
			}
			f += s.Fraction
		}
		if f+cp.Rejected > 1+1e-3 {
			return fmt.Errorf("plan: class (%d,%d) allocates %g + rejects %g > 1",
				cp.Class.App, cp.Class.Ingress, f, cp.Rejected)
		}
	}
	load := p.TotalPlannedLoad(g.NumElements())
	for e := range load {
		cap := g.ElementCap(graph.ElementID(e))
		if load[e] > cap*(1+1e-6)+1e-6 {
			return fmt.Errorf("plan: element %d planned load %g exceeds capacity %g", e, load[e], cap)
		}
	}
	return nil
}

// RejectionBalance summarizes how evenly the plan spreads rejection across
// the applications sharing each ingress node, mirroring the structure of
// the paper's rejection balance index (Eq. 20): a per-node Jain index over
// per-application rejected demand, averaged over nodes weighted by the
// node's total class demand. Nodes where no application rejects contribute
// a perfect score. 1 = rejection perfectly even across applications.
func (p *Plan) RejectionBalance() float64 {
	perNode := make(map[graph.NodeID][]float64)
	weight := make(map[graph.NodeID]float64)
	for _, cp := range p.Classes {
		v := cp.Class.Ingress
		perNode[v] = append(perNode[v], cp.Rejected*cp.Class.Demand)
		weight[v] += cp.Class.Demand
	}
	var wSum, acc float64
	for v, xs := range perNode {
		rejects := false
		for _, x := range xs {
			if x > 0 {
				rejects = true
				break
			}
		}
		if !rejects {
			continue // no rejection at this node: uninformative
		}
		wSum += weight[v]
		acc += weight[v] * stats.JainIndex(xs)
	}
	if wSum == 0 {
		return 1
	}
	return acc / wSum
}

// ElementUtilization describes the planned load on one substrate element.
type ElementUtilization struct {
	Elem graph.ElementID
	// Name is the element's human-readable name.
	Name string
	// Load is the planned steady-state load in CU.
	Load float64
	// Cap is the element's capacity in CU.
	Cap float64
	// Frac is Load/Cap.
	Frac float64
}

// UtilizationReport returns the planned load of every substrate element
// carrying any planned demand, sorted by descending utilization fraction —
// the capacity-planning view of the plan (see examples/capacityplanning).
func (p *Plan) UtilizationReport(g *graph.Graph) []ElementUtilization {
	load := p.TotalPlannedLoad(g.NumElements())
	out := make([]ElementUtilization, 0, len(load))
	for e, l := range load {
		if l <= 0 {
			continue
		}
		elem := graph.ElementID(e)
		cap := g.ElementCap(elem)
		out = append(out, ElementUtilization{
			Elem: elem, Name: g.ElementName(elem),
			Load: l, Cap: cap, Frac: l / cap,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Frac > out[j].Frac })
	return out
}
