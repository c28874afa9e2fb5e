package lp

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

func mustVar(t *testing.T, p *Problem, cost, lo, up float64, entries []Entry) int {
	t.Helper()
	v, err := p.AddVar(cost, lo, up, entries)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func solveOptimal(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	return sol
}

// TestCheckPrimal feeds checkPrimal points on and off each kind of
// bound and row: inside, within the magnitude-scaled tolerance, past it,
// and NaN.
func TestCheckPrimal(t *testing.T) {
	p := NewProblem()
	mustVar(t, p, 1, 0, 4, []Entry{{p.AddRow(LE, 3), 1}})
	mustVar(t, p, 1, 0, math.Inf(1), []Entry{{p.AddRow(EQ, 1e6), 1}})
	mustVar(t, p, 1, 0, 1, []Entry{{p.AddRow(GE, 0.5), 1}})
	act, mag := make([]float64, 3), make([]float64, 3)
	for _, c := range []struct {
		x  []float64
		ok bool
	}{
		{[]float64{3, 1e6, 0.5}, true},
		{[]float64{3 + 2e-7, 1e6, 0.5}, true},  // LE within 1e-7·(1 + 3 + 3)
		{[]float64{3 + 1e-3, 1e6, 0.5}, false}, // LE over
		{[]float64{-1e-3, 1e6, 0.5}, false},    // below x0's bound
		{[]float64{3, 1e6 + 1e-2, 0.5}, true},  // EQ within 1e-7·(1 + 2e6)
		{[]float64{3, 1e6 + 1, 0.5}, false},    // EQ over
		{[]float64{3, 1e6 - 1, 0.5}, false},    // EQ short
		{[]float64{3, 1e6, 0.5 - 1e-8}, true},  // GE within 1e-7·(1 + 0.5 + 0.5)
		{[]float64{3, 1e6, 0.5 - 1e-6}, false}, // GE short
		{[]float64{3, 1e6, 1 + 1e-3}, false},   // above x2's bound
		{[]float64{3, math.NaN(), 0.5}, false},
	} {
		if err := p.checkPrimal(c.x, act, mag); (err == nil) != c.ok {
			t.Errorf("x = %v: %v", c.x, err)
		}
	}
}

func TestSimpleLE(t *testing.T) {
	// min −x−y  s.t. x+y ≤ 1, x,y ∈ [0,1]  ⇒ obj −1.
	p := NewProblem()
	r := p.AddRow(LE, 1)
	mustVar(t, p, -1, 0, 1, []Entry{{r, 1}})
	mustVar(t, p, -1, 0, 1, []Entry{{r, 1}})
	sol := solveOptimal(t, p)
	if math.Abs(sol.Obj-(-1)) > 1e-8 {
		t.Fatalf("obj = %g, want -1", sol.Obj)
	}
	if math.Abs(sol.X[0]+sol.X[1]-1) > 1e-8 {
		t.Fatalf("x+y = %g, want 1", sol.X[0]+sol.X[1])
	}
}

func TestClassicTextbookLP(t *testing.T) {
	// max 3x+5y s.t. x ≤ 4; 2y ≤ 12; 3x+2y ≤ 18 ⇒ x=2, y=6, obj 36.
	p := NewProblem()
	r1 := p.AddRow(LE, 4)
	r2 := p.AddRow(LE, 12)
	r3 := p.AddRow(LE, 18)
	x := mustVar(t, p, -3, 0, math.Inf(1), []Entry{{r1, 1}, {r3, 3}})
	y := mustVar(t, p, -5, 0, math.Inf(1), []Entry{{r2, 2}, {r3, 2}})
	sol := solveOptimal(t, p)
	if math.Abs(sol.Obj-(-36)) > 1e-7 {
		t.Fatalf("obj = %g, want -36", sol.Obj)
	}
	if math.Abs(sol.X[x]-2) > 1e-7 || math.Abs(sol.X[y]-6) > 1e-7 {
		t.Fatalf("x,y = %g,%g; want 2,6", sol.X[x], sol.X[y])
	}
}

func TestEqualityRow(t *testing.T) {
	// min x+2y s.t. x+y = 1 ⇒ x=1, y=0, obj 1.
	p := NewProblem()
	r := p.AddRow(EQ, 1)
	mustVar(t, p, 1, 0, math.Inf(1), []Entry{{r, 1}})
	mustVar(t, p, 2, 0, math.Inf(1), []Entry{{r, 1}})
	sol := solveOptimal(t, p)
	if math.Abs(sol.Obj-1) > 1e-8 {
		t.Fatalf("obj = %g, want 1", sol.Obj)
	}
	if math.Abs(sol.X[0]-1) > 1e-8 || math.Abs(sol.X[1]) > 1e-8 {
		t.Fatalf("x = %v, want [1 0]", sol.X)
	}
	// Dual of the equality row must price x to zero reduced cost.
	if math.Abs(sol.Dual[0]-1) > 1e-8 {
		t.Fatalf("dual = %g, want 1", sol.Dual[0])
	}
}

func TestGERow(t *testing.T) {
	// min x s.t. x ≥ 5 ⇒ 5.
	p := NewProblem()
	r := p.AddRow(GE, 5)
	mustVar(t, p, 1, 0, math.Inf(1), []Entry{{r, 1}})
	sol := solveOptimal(t, p)
	if math.Abs(sol.Obj-5) > 1e-8 {
		t.Fatalf("obj = %g, want 5", sol.Obj)
	}
}

func TestInfeasible(t *testing.T) {
	// x ≤ −1 with x ≥ 0.
	p := NewProblem()
	r := p.AddRow(LE, -1)
	mustVar(t, p, 1, 0, math.Inf(1), []Entry{{r, 1}})
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestInfeasibleEquality(t *testing.T) {
	// x + y = 5 with x,y ∈ [0,1].
	p := NewProblem()
	r := p.AddRow(EQ, 5)
	mustVar(t, p, 1, 0, 1, []Entry{{r, 1}})
	mustVar(t, p, 1, 0, 1, []Entry{{r, 1}})
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// min −x s.t. x − y = 0, x,y ≥ 0: both can grow forever.
	p := NewProblem()
	r := p.AddRow(EQ, 0)
	mustVar(t, p, -1, 0, math.Inf(1), []Entry{{r, 1}})
	mustVar(t, p, 0, 0, math.Inf(1), []Entry{{r, -1}})
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestBoundFlip(t *testing.T) {
	// min −x s.t. x ≤ 10, x ∈ [0,3] ⇒ x hits its own upper bound 3.
	p := NewProblem()
	r := p.AddRow(LE, 10)
	mustVar(t, p, -1, 0, 3, []Entry{{r, 1}})
	sol := solveOptimal(t, p)
	if math.Abs(sol.X[0]-3) > 1e-8 {
		t.Fatalf("x = %g, want 3 (bound flip)", sol.X[0])
	}
}

func TestNonZeroLowerBounds(t *testing.T) {
	// min x+y s.t. x+y ≥ 3, x ∈ [1,∞), y ∈ [0.5,∞) ⇒ obj 3.
	p := NewProblem()
	r := p.AddRow(GE, 3)
	mustVar(t, p, 1, 1, math.Inf(1), []Entry{{r, 1}})
	mustVar(t, p, 1, 0.5, math.Inf(1), []Entry{{r, 1}})
	sol := solveOptimal(t, p)
	if math.Abs(sol.Obj-3) > 1e-8 {
		t.Fatalf("obj = %g, want 3", sol.Obj)
	}
	if sol.X[0] < 1-1e-9 || sol.X[1] < 0.5-1e-9 {
		t.Fatalf("solution %v violates lower bounds", sol.X)
	}
}

func TestFixedVariable(t *testing.T) {
	// A [2,2] fixed variable forces the rest.
	// min y s.t. x + y ≥ 5, x fixed at 2 ⇒ y = 3.
	p := NewProblem()
	r := p.AddRow(GE, 5)
	mustVar(t, p, 0, 2, 2, []Entry{{r, 1}})
	y := mustVar(t, p, 1, 0, math.Inf(1), []Entry{{r, 1}})
	sol := solveOptimal(t, p)
	if math.Abs(sol.X[y]-3) > 1e-8 {
		t.Fatalf("y = %g, want 3", sol.X[y])
	}
}

// TestAddVarMergesDuplicateRowEntries pins the one-entry-per-row column
// invariant: duplicate rows sum. Without the merge, the sparse solves
// disagreed among themselves on such columns (FTRAN scattered the last
// coefficient while pricing summed them), so Solve could report Optimal
// for a constraint-violating point.
func TestAddVarMergesDuplicateRowEntries(t *testing.T) {
	p := NewProblem()
	r := p.AddRow(LE, 4)
	// Intended coefficient 2 = 1 + 1: min -x s.t. 2x ≤ 4, x ∈ [0, 10].
	x := p.MustAddVar(-1, 0, 10, []Entry{{r, 1}, {r, 1}})
	sol := solveOptimal(t, p)
	if math.Abs(sol.X[x]-2) > 1e-8 {
		t.Fatalf("x = %g, want 2 (duplicate entries must sum to coef 2)", sol.X[x])
	}
	if len(p.cols[x]) != 1 || p.cols[x][0].Coef != 2 {
		t.Fatalf("stored column %v, want single entry with coef 2", p.cols[x])
	}
}

func TestAddVarErrors(t *testing.T) {
	p := NewProblem()
	p.AddRow(LE, 1)
	if _, err := p.AddVar(0, 3, 2, nil); err == nil {
		t.Error("lo > up accepted")
	}
	if _, err := p.AddVar(0, math.Inf(-1), 0, nil); err == nil {
		t.Error("infinite lower bound accepted")
	}
	if _, err := p.AddVar(0, 0, 1, []Entry{{Row: 5, Coef: 1}}); err == nil {
		t.Error("entry for missing row accepted")
	}
	if _, err := p.AddVar(math.NaN(), 0, 1, nil); err == nil {
		t.Error("NaN cost accepted")
	}
	if _, err := p.AddVar(0, 0, 1, []Entry{{Row: 0, Coef: math.NaN()}}); err == nil {
		t.Error("NaN coefficient accepted")
	}
	if p.NumVars() != 0 {
		t.Errorf("rejected variables left a trace: %d vars, want 0", p.NumVars())
	}
}

func TestEmptyProblem(t *testing.T) {
	if _, err := NewProblem().Solve(); err == nil {
		t.Error("empty problem solved")
	}
	p := NewProblem()
	p.AddRow(LE, 1)
	if _, err := p.Solve(); err == nil {
		t.Error("problem with no variables solved")
	}
}

func TestDegenerateLP(t *testing.T) {
	// Klee–Minty-flavoured degenerate instance; must terminate.
	p := NewProblem()
	r1 := p.AddRow(LE, 0)
	r2 := p.AddRow(LE, 0)
	r3 := p.AddRow(LE, 1)
	mustVar(t, p, -1, 0, math.Inf(1), []Entry{{r1, 1}, {r2, 1}, {r3, 1}})
	mustVar(t, p, -1, 0, math.Inf(1), []Entry{{r1, -1}, {r3, 1}})
	mustVar(t, p, -1, 0, math.Inf(1), []Entry{{r2, -1}, {r3, 1}})
	sol := solveOptimal(t, p)
	if sol.Obj > -1+1e-7 {
		t.Fatalf("obj = %g, want ≤ -1", sol.Obj)
	}
}

// checkKKT verifies the certificate of optimality: primal feasibility,
// complementary slackness on rows, and sign-correct reduced costs. These
// conditions are sufficient for LP optimality, so they validate the solver
// without a reference implementation.
func checkKKT(t *testing.T, p *Problem, sol *Solution, senses []Sense, rhs []float64, lo, up, cost []float64, cols [][]Entry) {
	t.Helper()
	if err := kktViolation(sol, senses, rhs, lo, up, cost, cols); err != nil {
		t.Fatal(err)
	}
}

// kktViolation returns the first optimality condition sol breaks, or nil.
// Rows and bounds are held to 1e-6 absolute. A reduced cost is held to
// dualTol·(1 + |c_j|), the rule price certifies optimality by: beside
// costs of 1e10 an absolute test would judge rounding noise in the duals.
func kktViolation(sol *Solution, senses []Sense, rhs []float64, lo, up, cost []float64, cols [][]Entry) error {
	const tol = 1e-6
	m := len(rhs)
	act := make([]float64, m)
	for j, col := range cols {
		for _, e := range col {
			act[e.Row] += e.Coef * sol.X[j]
		}
	}
	for i := 0; i < m; i++ {
		switch senses[i] {
		case LE:
			if act[i] > rhs[i]+tol {
				return fmt.Errorf("row %d violated: %g > %g", i, act[i], rhs[i])
			}
			if rhs[i]-act[i] > tol && math.Abs(sol.Dual[i]) > tol {
				return fmt.Errorf("row %d slack with nonzero dual %g", i, sol.Dual[i])
			}
			if sol.Dual[i] > tol {
				return fmt.Errorf("LE row %d has positive dual %g in a minimization", i, sol.Dual[i])
			}
		case GE:
			if act[i] < rhs[i]-tol {
				return fmt.Errorf("row %d violated: %g < %g", i, act[i], rhs[i])
			}
			if act[i]-rhs[i] > tol && math.Abs(sol.Dual[i]) > tol {
				return fmt.Errorf("row %d slack with nonzero dual %g", i, sol.Dual[i])
			}
		case EQ:
			if math.Abs(act[i]-rhs[i]) > tol {
				return fmt.Errorf("row %d not tight: %g ≠ %g", i, act[i], rhs[i])
			}
		}
	}
	for j := range cols {
		if sol.X[j] < lo[j]-tol || sol.X[j] > up[j]+tol {
			return fmt.Errorf("var %d = %g outside [%g,%g]", j, sol.X[j], lo[j], up[j])
		}
		d := cost[j]
		for _, e := range cols[j] {
			d -= sol.Dual[e.Row] * e.Coef
		}
		dtol := dualTol * (1 + math.Abs(cost[j]))
		interior := sol.X[j] > lo[j]+tol && sol.X[j] < up[j]-tol
		switch {
		case up[j]-lo[j] <= tol:
			// Fixed: at both bounds, any reduced cost is optimal.
		case interior && math.Abs(d) > dtol:
			return fmt.Errorf("var %d interior with reduced cost %g", j, d)
		case sol.X[j] <= lo[j]+tol && d < -dtol:
			return fmt.Errorf("var %d at lower with negative reduced cost %g", j, d)
		case sol.X[j] >= up[j]-tol && !math.IsInf(up[j], 1) && sol.X[j] > lo[j]+tol && d > dtol:
			return fmt.Errorf("var %d at upper with positive reduced cost %g", j, d)
		}
	}
	return nil
}

// TestRandomLPsSatisfyKKT fuzzes the solver with random dense LPs and
// verifies the optimality certificate for every optimal result.
func TestRandomLPsSatisfyKKT(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 43))
	var optimal, infeasible int
	for trial := 0; trial < 200; trial++ {
		m := 2 + rng.IntN(4)
		n := 2 + rng.IntN(6)
		p := NewProblem()
		senses := make([]Sense, m)
		rhs := make([]float64, m)
		for i := 0; i < m; i++ {
			senses[i] = []Sense{LE, EQ, GE}[rng.IntN(3)]
			rhs[i] = rng.Float64()*8 - 2
			p.AddRow(senses[i], rhs[i])
		}
		lo := make([]float64, n)
		up := make([]float64, n)
		cost := make([]float64, n)
		cols := make([][]Entry, n)
		for j := 0; j < n; j++ {
			lo[j] = 0
			up[j] = 1 + rng.Float64()*9 // finite bounds keep it bounded
			cost[j] = rng.Float64()*4 - 2
			for i := 0; i < m; i++ {
				if rng.Float64() < 0.7 {
					cols[j] = append(cols[j], Entry{Row: i, Coef: rng.Float64()*4 - 2})
				}
			}
			if _, err := p.AddVar(cost[j], lo[j], up[j], cols[j]); err != nil {
				t.Fatal(err)
			}
		}
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		switch sol.Status {
		case Optimal:
			optimal++
			checkKKT(t, p, sol, senses, rhs, lo, up, cost, cols)
		case Infeasible:
			infeasible++
		case Unbounded:
			t.Fatalf("trial %d: unbounded with finite variable bounds", trial)
		}
	}
	if optimal == 0 {
		t.Fatal("no random trial was optimal; fuzz coverage broken")
	}
	if infeasible == 0 {
		t.Log("note: no infeasible random trials this seed")
	}
}

// TestLargerSparseLP exercises refactorization (>100 pivots) on a
// transportation-style LP whose optimum is known analytically.
func TestLargerSparseLP(t *testing.T) {
	// 30 supplies with capacity 1, 30 demands requiring 1, cost c_ij =
	// |i−j| on a complete bipartite graph ⇒ identity assignment, obj 0.
	const k = 30
	p := NewProblem()
	supply := make([]int, k)
	demand := make([]int, k)
	for i := 0; i < k; i++ {
		supply[i] = p.AddRow(LE, 1)
	}
	for j := 0; j < k; j++ {
		demand[j] = p.AddRow(EQ, 1)
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			c := math.Abs(float64(i - j))
			mustVar(t, p, c, 0, math.Inf(1), []Entry{{supply[i], 1}, {demand[j], 1}})
		}
	}
	sol := solveOptimal(t, p)
	if math.Abs(sol.Obj) > 1e-6 {
		t.Fatalf("obj = %g, want 0 (identity assignment)", sol.Obj)
	}
}

func TestDualsPriceColumnsForGeneration(t *testing.T) {
	// A knapsack-like master problem: capacity row + convexity row.
	// min −2a s.t. a ≤ 4 (capacity), a ≤ 1 (convexity via EQ with slack
	// pattern): check duals let us price an improving column.
	p := NewProblem()
	capRow := p.AddRow(LE, 4)
	conv := p.AddRow(EQ, 1)
	// Initial column uses 8 capacity per unit: can only take 0.5.
	mustVar(t, p, -2, 0, 1, []Entry{{capRow, 8}, {conv, 1}})
	// Rejection column: zero use, zero value.
	mustVar(t, p, 0, 0, 1, []Entry{{conv, 1}})
	sol := solveOptimal(t, p)
	if math.Abs(sol.Obj-(-1)) > 1e-8 {
		t.Fatalf("master obj = %g, want -1", sol.Obj)
	}
	// Price a better column (cost −2, uses 2 capacity): reduced cost
	// = −2 − (y_cap·2 + y_conv·1) must be negative ⇒ it would enter.
	rc := -2 - (sol.Dual[capRow]*2 + sol.Dual[conv]*1)
	if rc >= -1e-9 {
		t.Fatalf("improving column priced non-negative: %g (duals %v)", rc, sol.Dual)
	}
}

func TestSolveDoesNotMutateProblem(t *testing.T) {
	p := NewProblem()
	r := p.AddRow(LE, 1)
	mustVar(t, p, -1, 0, 1, []Entry{{r, 1}})
	first := solveOptimal(t, p)
	second := solveOptimal(t, p)
	if first.Obj != second.Obj {
		t.Fatalf("repeat solve differs: %g vs %g", first.Obj, second.Obj)
	}
}

func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{Optimal: "optimal", Infeasible: "infeasible", Unbounded: "unbounded", Status(9): "status(9)"} {
		if st.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", st, st.String(), want)
		}
	}
}

// TestLargeCostScaleTerminatesQuickly guards the scale-aware optimality
// tolerance: objectives of magnitude ~1e8 (PLAN-VNE scale) must not send
// the solver chasing floating-point phantom reduced costs.
func TestLargeCostScaleTerminatesQuickly(t *testing.T) {
	rng := rand.New(rand.NewPCG(50, 51))
	p := NewProblem()
	const m, n = 40, 300
	rows := make([]int, m)
	for i := range rows {
		rows[i] = p.AddRow(LE, 1e6*(1+rng.Float64()))
	}
	conv := make([]int, 30)
	for i := range conv {
		conv[i] = p.AddRow(EQ, 1)
	}
	for j := 0; j < n; j++ {
		cost := 1e7 * (0.5 + rng.Float64())
		entries := []Entry{{Row: conv[j%len(conv)], Coef: 1}}
		for k := 0; k < 4; k++ {
			entries = append(entries, Entry{Row: rows[rng.IntN(m)], Coef: 1e4 * rng.Float64()})
		}
		mustVar(t, p, cost, 0, 1, entries)
	}
	// Rejection-like columns keep it feasible.
	for i := range conv {
		mustVar(t, p, 5e8, 0, 1, []Entry{{Row: conv[i], Coef: 1}})
	}
	sol := solveOptimal(t, p)
	if sol.Iterations > 20000 {
		t.Fatalf("%d iterations on a %dx%d LP — tolerance scaling regressed", sol.Iterations, m, n)
	}
}
