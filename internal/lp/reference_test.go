package lp

import (
	"math"
	"math/rand/v2"
	"testing"
)

// refSolve is a deliberately naive dense reference solver used only to
// cross-check the sparse-LU simplex: a textbook two-phase tableau
// simplex with Bland's rule (guaranteed termination). Variable bounds
// become explicit rows, every row becomes an equality with a slack, and
// the whole tableau is dense — O((m+n)²) memory per instance, fine for
// the small random problems the fuzz test feeds it. Each row, right-hand
// side included, is divided by its largest absolute entry before the
// tableau is built, so the absolute tolerances below judge every row on
// one scale: a master whose capacity rows reach 1e6 beside coefficients
// of 1e7 solves to the same optimum as one scaled by hand.
//
// It returns the status and, when optimal, the objective value.
func refSolve(p *Problem) (Status, float64) {
	n := p.numVars
	// Shift x' = x − lo ≥ 0 and collect explicit upper-bound rows.
	type refRow struct {
		coef  []float64
		rhs   float64
		sense Sense
	}
	var rows []refRow
	for i := range p.rhs {
		rr := refRow{coef: make([]float64, n), rhs: p.rhs[i], sense: p.rowSense[i]}
		rows = append(rows, rr)
	}
	for j := 0; j < n; j++ {
		for _, e := range p.cols[j] {
			rows[e.Row].coef[j] += e.Coef
			rows[e.Row].rhs -= e.Coef * p.lo[j] // shift into x' space
		}
	}
	for j := 0; j < n; j++ {
		if up := p.up[j] - p.lo[j]; !math.IsInf(up, 1) {
			rr := refRow{coef: make([]float64, n), rhs: up, sense: LE}
			rr.coef[j] = 1
			rows = append(rows, rr)
		}
	}
	for i := range rows {
		rr := &rows[i]
		scale := math.Abs(rr.rhs)
		for _, c := range rr.coef {
			scale = math.Max(scale, math.Abs(c))
		}
		if scale == 0 {
			continue
		}
		for j := range rr.coef {
			rr.coef[j] /= scale
		}
		rr.rhs /= scale
	}
	m := len(rows)
	// Columns: n structurals, one slack per non-EQ row, one artificial
	// per row. Dense tableau T is m rows × (ncols+1), last col = rhs.
	nslack := 0
	for _, rr := range rows {
		if rr.sense != EQ {
			nslack++
		}
	}
	ncols := n + nslack + m
	T := make([][]float64, m)
	artBase := n + nslack
	si := 0
	for i, rr := range rows {
		T[i] = make([]float64, ncols+1)
		copy(T[i], rr.coef)
		rhs := rr.rhs
		if rr.sense != EQ {
			s := 1.0
			if rr.sense == GE {
				s = -1
			}
			T[i][n+si] = s
			si++
		}
		if rhs < 0 {
			for k := 0; k <= ncols; k++ {
				T[i][k] = -T[i][k]
			}
			rhs = -rhs
		}
		T[i][ncols] = rhs
		T[i][artBase+i] = 1
	}
	basis := make([]int, m)
	for i := range basis {
		basis[i] = artBase + i
	}
	costRow := func(cost []float64) []float64 {
		// Reduced-cost row z_j − c_j under the current basis, by
		// eliminating basic columns from the cost vector.
		z := make([]float64, ncols+1)
		for j, c := range cost {
			z[j] = -c
		}
		for i, bj := range basis {
			if bj < len(cost) && cost[bj] != 0 {
				for k := 0; k <= ncols; k++ {
					z[k] += cost[bj] * T[i][k]
				}
			}
		}
		return z
	}
	pivot := func(r, c int) {
		pv := T[r][c]
		for k := 0; k <= ncols; k++ {
			T[r][k] /= pv
		}
		for i := 0; i < m; i++ {
			if i == r || T[i][c] == 0 {
				continue
			}
			f := T[i][c]
			for k := 0; k <= ncols; k++ {
				T[i][k] -= f * T[r][k]
			}
		}
		basis[r] = c
	}
	const tol = 1e-9
	iterate := func(cost []float64, forbid int) bool {
		// Bland's rule; forbid ≥ 0 bars columns ≥ forbid from entering
		// (phase 2 must not readmit artificials). Returns false on
		// unbounded.
		for iter := 0; iter < 20000; iter++ {
			z := costRow(cost)
			enter := -1
			for j := 0; j < ncols; j++ {
				if forbid >= 0 && j >= forbid {
					break
				}
				inBasis := false
				for _, bj := range basis {
					if bj == j {
						inBasis = true
						break
					}
				}
				if inBasis {
					continue
				}
				// z[j] holds z_j − c_j; a negative value improves the
				// (maximization-form) objective.
				if z[j] < -tol {
					enter = j
					break
				}
			}
			if enter < 0 {
				return true
			}
			leave := -1
			bestRatio := math.Inf(1)
			for i := 0; i < m; i++ {
				if T[i][enter] > tol {
					ratio := T[i][ncols] / T[i][enter]
					if ratio < bestRatio-tol || (ratio < bestRatio+tol && (leave < 0 || basis[i] < basis[leave])) {
						bestRatio, leave = ratio, i
					}
				}
			}
			if leave < 0 {
				return false
			}
			pivot(leave, enter)
		}
		return true // iteration safety valve; treat as converged
	}
	// Phase 1: minimize Σ artificials (as a max problem: cost −1 each).
	phase1 := make([]float64, ncols)
	for j := artBase; j < ncols; j++ {
		phase1[j] = -1
	}
	iterate(phase1, -1)
	sum := 0.0
	for i, bj := range basis {
		if bj >= artBase {
			sum += T[i][ncols]
		}
	}
	if sum > 1e-6 {
		return Infeasible, 0
	}
	// Pivot remaining (degenerate, zero-valued) artificials out of the
	// basis so phase 2 cannot silently push one positive; a row offering
	// no replacement pivot is all-zero — redundant — and inert.
	for i := 0; i < m; i++ {
		if basis[i] < artBase {
			continue
		}
		for j := 0; j < artBase; j++ {
			if math.Abs(T[i][j]) > tol {
				pivot(i, j)
				break
			}
		}
	}
	// Phase 2: maximize −cᵀx (we minimize), artificials barred.
	phase2 := make([]float64, ncols)
	for j := 0; j < n; j++ {
		phase2[j] = -p.cost[j]
	}
	if !iterate(phase2, artBase) {
		return Unbounded, 0
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += p.cost[j] * p.lo[j]
	}
	for i, bj := range basis {
		if bj < n {
			obj += p.cost[bj] * T[i][ncols]
		}
	}
	return Optimal, obj
}

// randomLPClass is one size class of the random bounded LPs
// TestRandomLPsAgainstDenseReference draws: narrow instances drawn from
// one stream, and wider ones (each derived from a per-trial stream of its
// own) that exercise partial pricing's cursor wrap-around.
type randomLPClass struct {
	name         string
	seed1, seed2 uint64
	trials       int
	maxM, maxN   int
	density      float64
	fork         bool // draw each instance from its own PCG(trial, 997)
}

var randomLPClasses = []randomLPClass{
	{"narrow", 2024, 7, 300, 6, 8, 0.6, false},
	{"wide", 88, 11, 250, 10, 24, 0.5, true},
}

// each draws the class's instances in order and hands each to fn.
func (c randomLPClass) each(t *testing.T, fn func(trial int, p *Problem)) {
	t.Helper()
	rng := rand.New(rand.NewPCG(c.seed1, c.seed2))
	for trial := 0; trial < c.trials; trial++ {
		m := 1 + rng.IntN(c.maxM)
		n := 1 + rng.IntN(c.maxN)
		inst := rng
		if c.fork {
			inst = rand.New(rand.NewPCG(uint64(trial), 997))
		}
		p := NewProblem()
		for i := 0; i < m; i++ {
			p.AddRow([]Sense{LE, EQ, GE}[inst.IntN(3)], inst.Float64()*8-2)
		}
		for j := 0; j < n; j++ {
			lo := 0.0
			if inst.Float64() < 0.3 {
				lo = inst.Float64() - 0.5
			}
			up := lo + inst.Float64()*6 // finite bounds keep instances bounded
			var entries []Entry
			for i := 0; i < m; i++ {
				if inst.Float64() < c.density {
					entries = append(entries, Entry{Row: i, Coef: inst.Float64()*4 - 2})
				}
			}
			if _, err := p.AddVar(inst.Float64()*4-2, lo, up, entries); err != nil {
				t.Fatal(err)
			}
		}
		fn(trial, p)
	}
}

// TestRandomLPsAgainstDenseReference fuzzes the sparse-LU simplex with
// the random bounded LPs of randomLPClasses and cross-checks status and
// objective against the naive dense reference solver — the guard the LU
// path runs under.
func TestRandomLPsAgainstDenseReference(t *testing.T) {
	for _, c := range randomLPClasses {
		t.Run(c.name, func(t *testing.T) {
			var optimal, infeasible int
			c.each(t, func(trial int, p *Problem) {
				sol, err := p.Solve()
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				refSt, refObj := refSolve(p)
				if sol.Status != refSt {
					t.Fatalf("trial %d (%dx%d): status %v, reference says %v", trial, p.NumRows(), p.NumVars(), sol.Status, refSt)
				}
				if sol.Status == Optimal {
					optimal++
					if d := math.Abs(sol.Obj - refObj); d > 1e-6*(1+math.Abs(refObj)) {
						t.Fatalf("trial %d (%dx%d): obj %.12g, reference %.12g (Δ %g)", trial, p.NumRows(), p.NumVars(), sol.Obj, refObj, d)
					}
				} else {
					infeasible++
				}
			})
			if optimal < 20 || infeasible < 20 {
				t.Fatalf("fuzz mix degenerate: %d optimal, %d infeasible of %d", optimal, infeasible, c.trials)
			}
		})
	}
}
