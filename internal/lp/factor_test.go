package lp

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestJitterPerturbsZeroCostColumns pins the retry perturbation's shape:
// it must be additive and scaled by max|c|, because the old relative
// (multiplicative) jitter was a no-op on zero-cost columns — exactly the
// tied columns that produce the degenerate pivots the retry exists to
// break.
func TestJitterPerturbsZeroCostColumns(t *testing.T) {
	p := NewProblem()
	r := p.AddRow(LE, 1)
	conv := p.AddRow(EQ, 1)
	for i := 0; i < 6; i++ {
		p.MustAddVar(0, 0, 1, []Entry{{r, 1}, {conv, 1}}) // identical zero-cost tie
	}
	s, _ := p.newSimplex(1e-10, &workspace{})
	seen := make(map[float64]bool)
	for j := 0; j < p.NumVars(); j++ {
		if s.cost[j] == 0 {
			t.Fatalf("column %d: perturbed cost still exactly zero — jitter cannot break zero-cost ties", j)
		}
		if seen[s.cost[j]] {
			t.Errorf("columns share perturbed cost %g — ties survive the jitter", s.cost[j])
		}
		seen[s.cost[j]] = true
	}
	// And the all-zero-cost degenerate instance solves under perturbation
	// with its true (unperturbed) objective of zero.
	sol, err := p.solveOnce(1e-10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Obj != 0 {
		t.Fatalf("obj = %g, want exactly 0: Obj must be computed from true costs, not perturbed ones", sol.Obj)
	}
}

// TestJitterScalesWithCostMagnitude: with costs of magnitude ~1e8 the
// jitter must stay proportional (≈1e-10·1e8 = 1e-2 absolute) so it can
// actually move reduced costs of that scale.
func TestJitterScalesWithCostMagnitude(t *testing.T) {
	p := NewProblem()
	r := p.AddRow(LE, 1)
	p.MustAddVar(1e8, 0, 1, []Entry{{r, 1}})
	p.MustAddVar(0, 0, 1, []Entry{{r, 1}})
	s, _ := p.newSimplex(1e-10, &workspace{})
	d := s.cost[1] // jitter on the zero-cost column
	if d <= 0 || d > 1e-10*1e8*1.01 {
		t.Fatalf("zero-cost column jitter %g outside (0, ~1e-2]", d)
	}
}

// randomBasis builds a random sparse nonsingular-ish column set for
// factorization tests: a permuted diagonal (guaranteed nonsingular)
// plus random off-diagonal fill.
func randomBasis(rng *rand.Rand, m int) ([][]Entry, []int) {
	perm := rng.Perm(m)
	cols := make([][]Entry, m)
	basis := make([]int, m)
	for pos := 0; pos < m; pos++ {
		col := []Entry{{Row: perm[pos], Coef: 1 + rng.Float64()}}
		for k := 0; k < 2; k++ {
			if rng.Float64() < 0.5 {
				col = append(col, Entry{Row: rng.IntN(m), Coef: rng.Float64()*2 - 1})
			}
		}
		// Dedup rows (AddVar-style columns have unique rows).
		seen := map[int]bool{}
		ded := col[:0]
		for _, e := range col {
			if !seen[e.Row] {
				seen[e.Row] = true
				ded = append(ded, e)
			}
		}
		cols[pos] = ded
		basis[pos] = pos
	}
	return cols, basis
}

// TestFactorBasisSolves cross-checks FTRAN/BTRAN against direct
// matrix-vector products on random sparse bases, including after a
// sequence of eta updates.
func TestFactorBasisSolves(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for trial := 0; trial < 60; trial++ {
		m := 1 + rng.IntN(40)
		cols, basis := randomBasis(rng, m)
		lu := new(basisLU)
		var fw luWorkspace
		ok, dep, _ := factorBasis(&fw, lu, m, cols, basis)
		if !ok {
			t.Fatalf("trial %d: spurious dependency report %v", trial, dep)
		}
		mulB := func(w []float64) []float64 { // B·w in row space
			out := make([]float64, m)
			for pos, j := range basis {
				for _, e := range cols[j] {
					out[e.Row] += e.Coef * w[pos]
				}
			}
			return out
		}
		mulBT := func(y []float64) []float64 { // Bᵀ·y in position space
			out := make([]float64, m)
			for pos, j := range basis {
				for _, e := range cols[j] {
					out[pos] += e.Coef * y[e.Row]
				}
			}
			return out
		}
		checkClose := func(kind string, got, want []float64) {
			t.Helper()
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
					t.Fatalf("trial %d m=%d: %s[%d] = %g, want %g", trial, m, kind, i, got[i], want[i])
				}
			}
		}
		// FTRAN against a random structural-style column.
		a := []Entry{{Row: rng.IntN(m), Coef: 1 + rng.Float64()}}
		w := make([]float64, m)
		lu.ftranCol(a, w)
		bw := mulB(w)
		want := make([]float64, m)
		for _, e := range a {
			want[e.Row] = e.Coef
		}
		checkClose("B·ftran(a)", bw, want)
		// BTRAN against a random cost vector.
		cb := make([]float64, m)
		for i := range cb {
			cb[i] = rng.Float64()*2 - 1
		}
		y := make([]float64, m)
		lu.btran(cb, y)
		checkClose("Bᵀ·btran(c)", mulBT(y), cb)
		// Up to ten eta updates, re-checking both directions after each.
		for u := 0; u < 10; u++ {
			pos := rng.IntN(m)
			newCol := []Entry{{Row: rng.IntN(m), Coef: 2 + rng.Float64()}, {Row: rng.IntN(m), Coef: rng.Float64()}}
			seen := map[int]bool{}
			ded := newCol[:0]
			for _, e := range newCol {
				if !seen[e.Row] {
					seen[e.Row] = true
					ded = append(ded, e)
				}
			}
			newCol = ded
			lu.ftranCol(newCol, w)
			if math.Abs(w[pos]) < 1e-6 {
				continue // would make the basis near-singular; not this test's business
			}
			cols = append(cols, newCol)
			basis[pos] = len(cols) - 1
			lu.update(pos, w)
			lu.ftranCol(a, w)
			checkClose("post-eta B·ftran(a)", mulB(w), want)
			lu.btran(cb, y)
			checkClose("post-eta Bᵀ·btran(c)", mulBT(y), cb)
		}
	}
}

// TestFactorBasisReportsDependency: duplicated and zero columns must be
// reported (aligned with the rows left unpivoted), not silently factored.
func TestFactorBasisReportsDependency(t *testing.T) {
	// B = [e0+e1, e0+e1, e2]: positions 0 and 1 are dependent.
	cols := [][]Entry{
		{{Row: 0, Coef: 1}, {Row: 1, Coef: 1}},
		{{Row: 0, Coef: 1}, {Row: 1, Coef: 1}},
		{{Row: 2, Coef: 1}},
	}
	var fw luWorkspace
	ok, depPos, depRows := factorBasis(&fw, new(basisLU), 3, cols, []int{0, 1, 2})
	if ok {
		t.Fatal("dependent basis factored without complaint")
	}
	if len(depPos) != 1 || len(depRows) != 1 {
		t.Fatalf("dependency report: positions %v rows %v, want one of each", depPos, depRows)
	}
	if depPos[0] != 0 && depPos[0] != 1 {
		t.Fatalf("dependent position %d, want 0 or 1", depPos[0])
	}
	if depRows[0] != 0 && depRows[0] != 1 {
		t.Fatalf("unpivoted row %d, want 0 or 1", depRows[0])
	}

	// An all-zero column: same story.
	cols = [][]Entry{{{Row: 0, Coef: 1}}, nil, {{Row: 2, Coef: 1}}}
	ok, depPos, depRows = factorBasis(&fw, new(basisLU), 3, cols, []int{0, 1, 2})
	if ok {
		t.Fatal("zero column factored without complaint")
	}
	if len(depPos) != 1 || depPos[0] != 1 || len(depRows) != 1 || depRows[0] != 1 {
		t.Fatalf("dependency report: positions %v rows %v, want [1] [1]", depPos, depRows)
	}
}

// TestRepairRecoversSingularBasis drives the simplex-level repair: a
// warm-start snapshot that declares two dependent columns basic must be
// repaired (or rejected) — never crash, never return a wrong optimum.
func TestRepairRecoversSingularBasis(t *testing.T) {
	p := NewProblem()
	r1 := p.AddRow(LE, 4)
	r2 := p.AddRow(LE, 6)
	// Two identical columns: any basis holding both is singular.
	p.MustAddVar(-1, 0, 10, []Entry{{r1, 1}, {r2, 1}})
	p.MustAddVar(-1, 0, 10, []Entry{{r1, 1}, {r2, 1}})
	b := &Basis{Vars: []VarStatus{StatusBasic, StatusBasic}, Rows: []VarStatus{StatusLower, StatusLower}}
	sol, err := p.SolveFrom(b)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Obj-(-4)) > 1e-8 {
		t.Fatalf("status %v obj %g, want optimal -4", sol.Status, sol.Obj)
	}
}

// factorBasisReference is factorBasis as it stood before the incremental
// pivot search, kept verbatim as the differential oracle: every
// elimination step recounts all active rows and columns ("Pass A") and
// rescans all active entries for the Markowitz minimum ("Pass B"). The
// one addition is the ws.visits accounting, the yardstick for
// TestPivotCountGuard's factor_visits headline.
func factorBasisReference(ws *luWorkspace, lu *basisLU, m int, cols [][]Entry, basis []int) (ok bool, depPos, depRows []int) {
	// Working rows: rows[i] holds (basis position, value), sorted by
	// position. Every loop below iterates deterministically — factor
	// results must be bit-reproducible run to run.
	ws.preCnt = growSlice(ws.preCnt, m)
	for i := 0; i < m; i++ {
		ws.preCnt[i] = 0
	}
	for _, j := range basis {
		for _, e := range cols[j] {
			ws.preCnt[e.Row]++
		}
	}
	ws.rowArena.reset()
	ws.rows = growSlice(ws.rows, m)
	rows := ws.rows
	for i := 0; i < m; i++ {
		rows[i] = ws.rowArena.take(ws.preCnt[i])
	}
	for pos, j := range basis {
		for _, e := range cols[j] {
			rows[e.Row] = append(rows[e.Row], spEntry{pos, e.Coef})
		}
	}
	for i := 0; i < m; i++ {
		sortEntries(rows[i])
	}
	ws.rowActive = growSlice(ws.rowActive, m)
	ws.colActive = growSlice(ws.colActive, m)
	rowActive, colActive := ws.rowActive, ws.colActive
	for i := 0; i < m; i++ {
		rowActive[i], colActive[i] = true, true
	}
	// colRows[c] lists rows that (may) hold an entry in position c:
	// fill-in appends, cancellation leaves stale entries that are
	// re-validated at use.
	ws.colRows = growSlice(ws.colRows, m)
	colRows := ws.colRows
	for c := 0; c < m; c++ {
		colRows[c] = colRows[c][:0]
	}
	for i := 0; i < m; i++ {
		for _, e := range rows[i] {
			colRows[e.idx] = append(colRows[e.idx], i)
		}
	}

	lu.reset(m)
	// uposcol mirrors ucol but in basis-position space during
	// elimination; converted to step space once the permutation is known.
	uposcol := ws.uposcol[:0]

	ws.colMax = growSlice(ws.colMax, m)
	ws.colCnt = growSlice(ws.colCnt, m)
	ws.rowCnt = growSlice(ws.rowCnt, m)
	ws.seen = growSlice(ws.seen, m)
	colMax, colCnt, rowCnt := ws.colMax, ws.colCnt, ws.rowCnt
	seen := ws.seen // per-elimination visit stamps for colRows
	for i := range seen {
		seen[i] = -1
	}
	activeCols := m

	for step := 0; activeCols > 0; step++ {
		// Pass A: per-column max magnitude and count over active entries,
		// and per-row active-entry counts, for the Markowitz score.
		for c := 0; c < m; c++ {
			if colActive[c] {
				colMax[c], colCnt[c] = 0, 0
			}
		}
		for i := 0; i < m; i++ {
			if !rowActive[i] {
				continue
			}
			n := 0
			ws.visits += len(rows[i])
			for _, e := range rows[i] {
				if !colActive[e.idx] {
					continue
				}
				n++
				colCnt[e.idx]++
				if a := math.Abs(e.val); a > colMax[e.idx] {
					colMax[e.idx] = a
				}
			}
			rowCnt[i] = n
		}
		// Columns with no usable pivot are dependent: report, drop, and
		// keep factoring the rest so one pass finds the whole deficiency.
		for c := 0; c < m; c++ {
			if colActive[c] && colMax[c] < luPivotTol {
				colActive[c] = false
				activeCols--
				depPos = append(depPos, c)
			}
		}
		if activeCols == 0 {
			break
		}
		// Pass B: pick the admissible entry minimizing the Markowitz
		// fill-in bound (r−1)(c−1); ties go to the larger magnitude,
		// then first in scan order (ascending row, ascending position).
		bestScore := math.MaxInt
		bestVal := 0.0
		pivRowI, pivColI := -1, -1
		for i := 0; i < m; i++ {
			if !rowActive[i] {
				continue
			}
			ws.visits += len(rows[i])
			for _, e := range rows[i] {
				c := e.idx
				if !colActive[c] {
					continue
				}
				a := math.Abs(e.val)
				if a < luPivotTol || a < luThreshold*colMax[c] {
					continue
				}
				score := (rowCnt[i] - 1) * (colCnt[c] - 1)
				if score < bestScore || (score == bestScore && a > bestVal) {
					bestScore, bestVal = score, a
					pivRowI, pivColI = i, c
				}
			}
		}
		// Unreachable in principle (every live column's max qualifies),
		// but guard against it becoming an infinite loop.
		if pivRowI < 0 {
			for c := 0; c < m; c++ {
				if colActive[c] {
					colActive[c] = false
					activeCols--
					depPos = append(depPos, c)
				}
			}
			break
		}

		lu.prow = append(lu.prow, pivRowI)
		lu.pcol = append(lu.pcol, pivColI)
		pivRow := rows[pivRowI]
		pivVal := entryVal(pivRow, pivColI)

		// Eliminate position pivColI from every other active row holding
		// it, recording the multipliers as L ops of step k.
		for _, i := range colRows[pivColI] {
			if i == pivRowI || !rowActive[i] || seen[i] == step {
				continue
			}
			seen[i] = step
			v, ok := entryLookup(rows[i], pivColI)
			if !ok {
				continue // stale colRows entry
			}
			f := v / pivVal
			lu.lrow = append(lu.lrow, i)
			lu.lmult = append(lu.lmult, f)
			rows[i] = rowSub(&ws.rowArena, rows[i], pivRow, f, pivColI, colRows, i)
		}
		lu.lstart = append(lu.lstart, len(lu.lrow))

		// Record the U row (off-diagonal entries still in position
		// space; mapped to steps after the permutation is complete).
		lu.udiag = append(lu.udiag, pivVal)
		for _, e := range pivRow {
			if e.idx != pivColI {
				uposcol = append(uposcol, e.idx)
				lu.uval = append(lu.uval, e.val)
			}
		}
		lu.ustart = append(lu.ustart, len(lu.uval))

		rowActive[pivRowI] = false
		colActive[pivColI] = false
		activeCols--
	}

	ws.uposcol = uposcol
	if len(depPos) > 0 {
		for i := 0; i < m; i++ {
			if rowActive[i] {
				depRows = append(depRows, i)
			}
		}
		return false, depPos, depRows
	}

	// Finalize: permutation inverses and U columns in step space.
	lu.rowStep = growSlice(lu.rowStep, m)
	ws.colStep = growSlice(ws.colStep, m)
	colStep := ws.colStep
	for k, r := range lu.prow {
		lu.rowStep[r] = k
	}
	for k, c := range lu.pcol {
		colStep[c] = k
	}
	lu.ucol = growSlice(lu.ucol, len(uposcol))
	for t, c := range uposcol {
		lu.ucol[t] = colStep[c]
	}
	lu.ywork = growSlice(lu.ywork, m)
	lu.zwork = growSlice(lu.zwork, m)
	return true, nil, nil
}
