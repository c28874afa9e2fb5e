// Package lp implements a sparse linear-programming solver — a two-phase
// revised primal simplex with bounded variables over a sparse LU
// factorization of the basis (Markowitz-ordered with threshold partial
// pivoting, product-form eta updates, periodic refactorization). There is
// one engine and nothing selects another: the entering column is priced
// by Devex over rotating column sections (pricing.go), with Bland's rule
// as the anti-cycling fallback, so a solve is a pure function of the
// Problem. It stands in for the CPLEX solver used in the paper (DESIGN.md
// §3): it solves the PLAN-VNE relaxation (Fig. 4) and the per-slot
// offline instances of the SLOTOFF baseline, and exposes dual prices so
// the plan builder can run Dantzig–Wolfe column generation.
//
// Problems are stated as
//
//	minimize    cᵀx
//	subject to  Ax {≤,=,≥} b   (per-row sense)
//	            lo ≤ x ≤ up    (per-variable bounds, up may be +Inf)
//
// Repeated, closely related solves — column-generation rounds, SLOTOFF's
// per-slot re-optimizations — can reuse the final basis of one solve as
// the starting point of the next via Solution.Basis and Problem.SolveFrom.
//
// The solver is exact up to floating-point tolerances and is sized for the
// instances of this reproduction (hundreds of rows, thousands of columns).
package lp

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// Sense is a row's constraint sense.
type Sense int

// Row senses.
const (
	LE Sense = iota + 1 // Σ aᵢxᵢ ≤ b
	EQ                  // Σ aᵢxᵢ = b
	GE                  // Σ aᵢxᵢ ≥ b
)

// Entry is one nonzero coefficient of a column.
type Entry struct {
	Row  int
	Coef float64
}

// Status reports the outcome of Solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota + 1
	Infeasible
	Unbounded
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Problem is an LP under construction. The zero value is unusable; call
// NewProblem.
type Problem struct {
	rowSense []Sense
	rhs      []float64

	cost    []float64
	lo, up  []float64
	cols    [][]Entry
	numVars int

	// ws holds the reusable solve workspace; claimed atomically so
	// concurrent solves on one Problem degrade to fresh allocation
	// instead of racing.
	ws atomic.Pointer[workspace]
}

// NewProblem returns an empty problem.
func NewProblem() *Problem {
	return &Problem{}
}

// AddRow appends a constraint row and returns its index.
func (p *Problem) AddRow(sense Sense, rhs float64) int {
	p.rowSense = append(p.rowSense, sense)
	p.rhs = append(p.rhs, rhs)
	return len(p.rhs) - 1
}

// AddVar appends a variable with the given objective cost, bounds and
// sparse column, returning its index. Bounds must satisfy lo ≤ up, lo
// finite; up may be +Inf. The cost and every stored coefficient must be
// finite (a NaN would otherwise come back as an "optimal" NaN). Entries
// must reference existing rows; entries naming the same row are merged
// by summing their coefficients, so the stored column always has one
// entry per row (an invariant the sparse solves rely on).
func (p *Problem) AddVar(cost, lo, up float64, entries []Entry) (int, error) {
	if !finite(lo) || math.IsNaN(up) || lo > up {
		return 0, fmt.Errorf("lp: invalid bounds [%g,%g]", lo, up)
	}
	if !finite(cost) {
		return 0, fmt.Errorf("lp: non-finite cost %g", cost)
	}
	for _, e := range entries {
		if e.Row < 0 || e.Row >= len(p.rhs) {
			return 0, fmt.Errorf("lp: entry references row %d of %d", e.Row, len(p.rhs))
		}
	}
	col := make([]Entry, 0, len(entries))
merge:
	for _, e := range entries {
		for i := range col {
			if col[i].Row == e.Row {
				col[i].Coef += e.Coef
				continue merge
			}
		}
		col = append(col, e)
	}
	for _, e := range col {
		if !finite(e.Coef) {
			return 0, fmt.Errorf("lp: non-finite coefficient %g in row %d", e.Coef, e.Row)
		}
	}
	p.cost = append(p.cost, cost)
	p.lo = append(p.lo, lo)
	p.up = append(p.up, up)
	p.cols = append(p.cols, col)
	p.numVars++
	return p.numVars - 1, nil
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// MustAddVar is AddVar that panics on error, for construction code whose
// indices are correct by construction.
func (p *Problem) MustAddVar(cost, lo, up float64, entries []Entry) int {
	v, err := p.AddVar(cost, lo, up, entries)
	if err != nil {
		panic(err)
	}
	return v
}

// NumRows returns the number of constraint rows added so far.
func (p *Problem) NumRows() int { return len(p.rhs) }

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return p.numVars }

// VarStatus is a variable's role in a basis snapshot.
type VarStatus int8

// Basis statuses. The zero value is StatusLower, so a zero-filled
// snapshot is a valid (all-nonbasic) warm start.
const (
	StatusLower VarStatus = iota // nonbasic at lower bound
	StatusUpper                  // nonbasic at upper bound
	StatusBasic                  // basic
)

// Basis is a warm-start snapshot of a simplex basis: one status per
// structural variable, and one per row for the row's logical
// (slack/artificial) column. Snapshots taken from a Solution may be
// replayed by SolveFrom on the same problem or on a grown one —
// variables and rows added after the snapshot default to nonbasic at
// lower bound and logical-basic respectively, which is exactly right
// for column generation.
type Basis struct {
	Vars []VarStatus
	Rows []VarStatus
}

// Solution is the result of Solve.
type Solution struct {
	Status Status
	// Obj is the objective value (meaningful only when Status==Optimal).
	Obj float64
	// X holds the primal values of the structural variables.
	X []float64
	// Dual holds one simplex multiplier per row (y = c_B·B⁻¹). At
	// optimality the reduced cost c_j − y·A_j of every structural
	// column is ≥ −tol for variables at lower bound; column generation
	// prices new columns against these values.
	Dual []float64
	// Iterations counts simplex pivots across both phases.
	Iterations int
	// Refactorizations counts basis LU rebuilds (scheduled eta-file
	// flushes plus weak-pivot and repair refreshes).
	Refactorizations int
	// PricingScans counts the nonbasic columns examined by pricing
	// across the solve — the work partial pricing exists to cut.
	PricingScans int
	// BlandPivots counts the subset of Iterations taken under the
	// Bland anti-cycling fallback rather than Devex pricing.
	BlandPivots int
	// WarmStarted reports that this solution came out of a successful
	// warm start (SolveFrom without the cold fallback).
	WarmStarted bool

	basis *Basis
}

// Basis returns the final basis as a warm-start snapshot for SolveFrom,
// or nil if the solve did not reach optimality.
func (s *Solution) Basis() *Basis { return s.basis }

// numerical tolerances
const (
	dualTol  = 1e-9 // reduced-cost optimality tolerance
	pivotTol = 1e-9 // minimum pivot magnitude
	feasTol  = 1e-7 // primal feasibility tolerance
)

const maxIterFactor = 200 // iteration cap: maxIterFactor · (m + n)

// ErrIterationLimit is returned when the simplex exceeds its iteration
// budget — in practice a symptom of severe degeneracy or numerical
// trouble.
var ErrIterationLimit = errors.New("lp: iteration limit exceeded")

// errSingular marks a basis state that LU repair could not recover.
var errSingular = errors.New("lp: singular basis during refactorization")

// errWarmStart marks a warm-start snapshot that could not seed a
// feasible starting basis; the caller falls back to a cold solve.
var errWarmStart = errors.New("lp: warm-start basis unusable")

// errNotFeasible marks an Optimal vertex that, read back from a clean
// factorization, breaks a bound or a row of the problem: the simplex held
// it to its ratio-test tolerances only, and a badly scaled problem can end
// outside them. SolveFrom falls back to a cold solve; a cold solve reports
// it.
var errNotFeasible = errors.New("lp: optimal vertex is not primal feasible")

// weakPivot is the magnitude below which a pivot is considered a threat to
// basis conditioning.
const weakPivot = 1e-7

// Solve runs the two-phase simplex and returns the solution. The problem
// may be reused (Solve does not mutate it). Numerically dependent bases
// are repaired in place (dependent columns are replaced by slacks); if
// repair fails, the solve is retried once with a deterministic additive
// cost perturbation of ~1e-10·max|c|, which breaks the tie pattern that
// led there while moving the optimum negligibly.
func (p *Problem) Solve() (*Solution, error) {
	sol, err := p.solveOnce(0, nil)
	if err != nil && errors.Is(err, errSingular) {
		sol, err = p.solveOnce(1e-10, nil)
	}
	if err == nil {
		recordSolve(sol)
	}
	return sol, err
}

// SolveFrom runs the simplex warm-started from a prior basis snapshot.
// When the snapshot still describes a primal-feasible vertex — the
// common case across column-generation rounds and per-slot
// re-optimizations, where consecutive LPs differ by a few columns —
// phase 1 is skipped entirely and the solve typically needs a small
// fraction of the pivots of a cold start. Any warm-path failure — an
// unusable snapshot, a singularity repair that could not restore
// feasibility, even an iteration stall from a pathological warm vertex
// or an Optimal vertex that is not primal feasible (errNotFeasible) —
// silently falls back to a cold Solve, so SolveFrom never does worse
// than Solve by more than the failed warm attempt.
func (p *Problem) SolveFrom(b *Basis) (*Solution, error) {
	if b != nil {
		counters.warmAttempts.Add(1)
		if sol, err := p.solveOnce(0, b); err == nil {
			sol.WarmStarted = true
			recordSolve(sol)
			return sol, nil
		}
	}
	return p.Solve()
}

func (p *Problem) solveOnce(perturb float64, warm *Basis) (*Solution, error) {
	m := len(p.rhs)
	if m == 0 || p.numVars == 0 {
		return nil, errors.New("lp: empty problem")
	}
	ws := p.takeWS()
	defer p.putWS(ws)
	s, rowNeg := p.newSimplex(perturb, ws)
	defer ws.reclaim(s)
	maxIter := maxIterFactor * (s.m + len(s.cols))

	if warm != nil {
		if err := s.initBasisFrom(warm); err != nil {
			return nil, err
		}
		// The warm vertex is feasible by construction: no phase 1.
	} else {
		if err := s.initBasis(); err != nil {
			return nil, err
		}
		// Phase 1: minimize artificial mass if any artificial is nonzero.
		if s.needPhase1() {
			ws.phase1Cost = growSlice(ws.phase1Cost, len(s.cols))
			phase1Cost := ws.phase1Cost
			for j := 0; j < s.artBase; j++ {
				phase1Cost[j] = 0
			}
			for j := s.artBase; j < len(s.cols); j++ {
				phase1Cost[j] = 1
			}
			st, err := s.iterate(phase1Cost, maxIter)
			if err != nil {
				return nil, fmt.Errorf("lp: phase 1: %w", err)
			}
			if st == Unbounded {
				return nil, errors.New("lp: phase 1 unbounded (internal error)")
			}
			if s.objective(phase1Cost) > feasTol*float64(s.m) {
				return &Solution{
					Status: Infeasible, Iterations: s.iters, Refactorizations: s.refacts,
					PricingScans: s.pscans, BlandPivots: s.blandPivots,
				}, nil
			}
			// Freeze artificials at zero for phase 2.
			for j := s.artBase; j < len(s.cols); j++ {
				s.up[j] = 0
			}
		}
	}

	st, err := s.iterate(s.cost, maxIter)
	if err != nil {
		return nil, fmt.Errorf("lp: phase 2: %w", err)
	}
	sol := &Solution{
		Status: st, Iterations: s.iters, Refactorizations: s.refacts,
		PricingScans: s.pscans, BlandPivots: s.blandPivots,
	}
	if st != Optimal {
		return sol, nil
	}
	// Certify from a clean factorization. iterate declared optimality on
	// reduced costs recomputed from scratch, but through the eta file:
	// eta updates accumulated since the last refactorization drift the
	// duals (and through them the reduced costs column generation prices
	// against) by up to ~1e-6 on badly scaled bases. One rebuild at
	// termination removes that drift before the primal check and the
	// duals below; warm-started re-solves that pivot zero times skip it.
	if s.lu.nEtas() > 0 {
		if err := s.refactorize(); err != nil {
			return nil, fmt.Errorf("lp: final refactorization: %w", err)
		}
		sol.Refactorizations = s.refacts
	}
	x := s.primal()
	sol.X = x[:s.nStruct]
	// rbuf and rhobuf are free once the basis is final.
	if err := p.checkPrimal(sol.X, s.rbuf, s.rhobuf); err != nil {
		return nil, err
	}
	sol.Obj = 0
	for j := 0; j < s.nStruct; j++ {
		sol.Obj += p.cost[j] * sol.X[j]
	}
	y := s.ybuf
	s.dualsInto(s.cost, y)
	sol.Dual = make([]float64, m)
	for i := range y {
		sol.Dual[i] = y[i] * rowNeg[i]
	}
	sol.basis = s.captureBasis()
	return sol, nil
}

// checkPrimal reports the first bound or row of p that x, the structural
// values of an Optimal vertex, breaks by more than feasTol scaled by the
// magnitudes involved: |x_j| for a bound, |rhs_i| + Σ_j |a_ij·x_j| for a
// row. act and mag are m-long scratch rows, overwritten.
func (p *Problem) checkPrimal(x, act, mag []float64) error {
	for j, v := range x {
		tol := feasTol * (1 + math.Abs(v))
		if !(v >= p.lo[j]-tol && v <= p.up[j]+tol) {
			return fmt.Errorf("%w: x[%d] = %g outside [%g, %g]", errNotFeasible, j, v, p.lo[j], p.up[j])
		}
	}
	clear(act)
	clear(mag)
	for j, v := range x {
		for _, e := range p.cols[j] {
			t := e.Coef * v
			act[e.Row] += t
			mag[e.Row] += math.Abs(t)
		}
	}
	for i, a := range act {
		rhs := p.rhs[i]
		tol := feasTol * (1 + math.Abs(rhs) + mag[i])
		sense := p.rowSense[i]
		if !(sense == GE || a <= rhs+tol) || !(sense == LE || a >= rhs-tol) {
			return fmt.Errorf("%w: row %d activity %g, right-hand side %g", errNotFeasible, i, a, rhs)
		}
	}
	return nil
}
