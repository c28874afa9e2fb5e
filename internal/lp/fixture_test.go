package lp

import (
	"bytes"
	"compress/gzip"
	"math"
	"os"
	"testing"
)

// loadFixture reads a gzipped Dump fixture from testdata/lp.
func loadFixture(t testing.TB, path string) *Problem {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open fixture: %v", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("gunzip fixture: %v", err)
	}
	defer zr.Close()
	p, err := Load(zr)
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	return p
}

// TestSeed4FixtureSolvesWithoutRetry replays the Random100@1.4 seed-4
// master LP — the instance whose "singular basis during refactorization"
// failure PR 4 dodged by swapping the golden seed — through the primary
// solve path (no perturbation retry) and verifies the optimality
// certificate. This is the regression test for the LU weak-pivot guard
// and basis repair.
func TestSeed4FixtureSolvesWithoutRetry(t *testing.T) {
	p := loadFixture(t, "../../testdata/lp/random100-u140-seed4.lp.gz")
	if p.NumRows() != 432 || p.NumVars() != 4348 {
		t.Fatalf("fixture shape %dx%d, want 432x4348 — regenerated by accident?", p.NumRows(), p.NumVars())
	}
	sol, err := p.solveOnce(0, nil) // the no-retry path Solve tries first
	if err != nil {
		t.Fatalf("solveOnce without perturbation: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	checkKKT(t, p, sol, p.rowSense, p.rhs, p.lo, p.up, p.cost, p.cols)
}

// TestDumpLoadRoundTrip pins the fixture format: bit-exact floats,
// senses, bounds and sparsity preserved.
func TestDumpLoadRoundTrip(t *testing.T) {
	p := NewProblem()
	r1 := p.AddRow(LE, 1.0/3)
	r2 := p.AddRow(GE, -2.5)
	r3 := p.AddRow(EQ, 1e8+0.1)
	mustVar(t, p, -1.1, 0, 1, []Entry{{r1, 0.3}, {r3, 1}})
	mustVar(t, p, 0, 0.25, math.Inf(1), []Entry{{r2, -7}})
	mustVar(t, p, 1e-17, -3, 4, nil)

	var buf bytes.Buffer
	if err := p.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumRows() != p.NumRows() || q.NumVars() != p.NumVars() {
		t.Fatalf("shape %dx%d, want %dx%d", q.NumRows(), q.NumVars(), p.NumRows(), p.NumVars())
	}
	for i := range p.rhs {
		if p.rowSense[i] != q.rowSense[i] || math.Float64bits(p.rhs[i]) != math.Float64bits(q.rhs[i]) {
			t.Fatalf("row %d: (%v,%x) != (%v,%x)", i, q.rowSense[i], math.Float64bits(q.rhs[i]), p.rowSense[i], math.Float64bits(p.rhs[i]))
		}
	}
	for j := 0; j < p.numVars; j++ {
		if math.Float64bits(p.cost[j]) != math.Float64bits(q.cost[j]) ||
			math.Float64bits(p.lo[j]) != math.Float64bits(q.lo[j]) ||
			math.Float64bits(p.up[j]) != math.Float64bits(q.up[j]) {
			t.Fatalf("var %d scalars differ", j)
		}
		if len(p.cols[j]) != len(q.cols[j]) {
			t.Fatalf("var %d nnz %d != %d", j, len(q.cols[j]), len(p.cols[j]))
		}
		for k, e := range p.cols[j] {
			if q.cols[j][k].Row != e.Row || math.Float64bits(q.cols[j][k].Coef) != math.Float64bits(e.Coef) {
				t.Fatalf("var %d entry %d differs", j, k)
			}
		}
	}
}

// TestLoadRejectsMalformed covers the fixture parser's error paths.
func TestLoadRejectsMalformed(t *testing.T) {
	for name, text := range map[string]string{
		"empty":              "",
		"bad header":         "lp 2\nrows 0\nvars 0\n",
		"bad sense":          "lp 1\nrows 1\nrow XX 0000000000000000\nvars 0\n",
		"bad bits":           "lp 1\nrows 1\nrow LE zzzz\nvars 0\n",
		"truncated":          "lp 1\nrows 2\nrow LE 0000000000000000\n",
		"short var":          "lp 1\nrows 0\nvars 1\nvar 0000000000000000\n",
		"bad nnz":            "lp 1\nrows 0\nvars 1\nvar 0000000000000000 0000000000000000 0000000000000000 2 0 0000000000000000\n",
		"bad var row":        "lp 1\nrows 1\nrow LE 0000000000000000\nvars 1\nvar 0000000000000000 0000000000000000 0000000000000000 1 7 0000000000000000\n",
		"nan rhs":            "lp 1\nrows 1\nrow LE 7ff8000000000000\nvars 0\n",
		"inf rhs":            "lp 1\nrows 1\nrow GE 7ff0000000000000\nvars 0\n",
		"nan cost":           "lp 1\nrows 1\nrow LE 0000000000000000\nvars 1\nvar 7ff8000000000000 0000000000000000 3ff0000000000000 1 0 3ff0000000000000\n",
		"-inf cost":          "lp 1\nrows 1\nrow LE 0000000000000000\nvars 1\nvar fff0000000000000 0000000000000000 3ff0000000000000 1 0 3ff0000000000000\n",
		"nan coef":           "lp 1\nrows 1\nrow LE 0000000000000000\nvars 1\nvar 0000000000000000 0000000000000000 3ff0000000000000 1 0 7ff8000000000000\n",
		"coef sum overflows": "lp 1\nrows 1\nrow LE 0000000000000000\nvars 1\nvar 0000000000000000 0000000000000000 3ff0000000000000 2 0 7fefffffffffffff 0 7fefffffffffffff\n",
	} {
		if _, err := Load(bytes.NewReader([]byte(text))); err == nil {
			t.Errorf("%s: Load accepted malformed fixture", name)
		}
	}
}

// TestBadlyScaledMastersSolve replays three plan masters over classes of
// demand 1e6 on Iris: capacity rows of 1e5–1.8e6 beside embedding
// coefficients up to 6e7, so a capacity slack enters by ~1e6 and moves an
// embedding fraction by ~1e-9 per unit. Each once failed Solve. In the
// first two the ratio test skipped a row whose delta was below pivotTol,
// so the step ran a fraction to −5e-4 and a capacity row 2 % over its
// right-hand side, and the final primal check refused the vertex. In the
// third it pivoted on 7.5e-9, rounding in a column that reached 3.5e7;
// the new basis was singular, its repair restored the old one, and Bland's
// rule chose the same pivot until the iteration cap. Solve's own primal
// check holds the vertex feasible; it must also pass kktViolation
// unscaled and match the dense reference's objective on the same problem
// (the reference scales each row itself).
func TestBadlyScaledMastersSolve(t *testing.T) {
	for _, name := range []string{"weak-row-fraction", "weak-row-capacity", "noise-pivot-loop"} {
		p := loadFixture(t, "../../testdata/lp/"+name+".lp.gz")
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("%s: status = %v, want optimal", name, sol.Status)
		}
		if err := kktViolation(sol, p.rowSense, p.rhs, p.lo, p.up, p.cost, p.cols); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		st, want := refSolve(p)
		if st != Optimal {
			t.Fatalf("%s: reference status %v", name, st)
		}
		if rel := math.Abs(sol.Obj-want) / math.Abs(want); rel > 1e-9 {
			t.Fatalf("%s: objective %v, reference %v (%.2g relative)", name, sol.Obj, want, rel)
		}
	}
}

// TestKKTRejectsVertexOnePivotShort keeps kktViolation sharp on a badly
// scaled master: it accepts lp's optimal vertex of the weak-row-capacity
// fixture unscaled (costs reach 1e10), and must refuse every vertex the
// same solve stood on in phase 2 before it, the one a pivot short of
// optimal included, each read with its duals at its pricing scan.
func TestKKTRejectsVertexOnePivotShort(t *testing.T) {
	p := loadFixture(t, "../../testdata/lp/weak-row-capacity.lp.gz")
	sol := solveNoRetry(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if err := kktViolation(sol, p.rowSense, p.rhs, p.lo, p.up, p.cost, p.cols); err != nil {
		t.Fatalf("optimal vertex: %v", err)
	}
	var short error
	p.ws.Store(&workspace{onPrice: func(s *simplex, cost []float64, optimal bool) {
		if s.iters >= sol.Iterations || &cost[0] != &s.cost[0] {
			return
		}
		y := make([]float64, s.m)
		s.dualsInto(cost, y)
		for i := range y {
			y[i] *= s.ws.rowNeg[i]
		}
		vertex := &Solution{X: s.primal()[:s.nStruct], Dual: y}
		err := kktViolation(vertex, p.rowSense, p.rhs, p.lo, p.up, p.cost, p.cols)
		if err == nil {
			t.Errorf("accepted the phase-2 vertex after %d of %d pivots", s.iters, sol.Iterations)
		}
		if s.iters == sol.Iterations-1 {
			short = err
		}
	}})
	if again := solveNoRetry(t, p); again.Iterations != sol.Iterations {
		t.Fatalf("the hooked solve took %d pivots, the first %d", again.Iterations, sol.Iterations)
	}
	if short == nil {
		t.Fatalf("no refused phase-2 vertex one pivot short of optimal (pivot %d)", sol.Iterations-1)
	}
	t.Logf("one pivot short: %v", short)
}
