package lp

import (
	"math"
	"testing"
)

// smallLP builds a 2-row problem with a nontrivial optimum:
// max-ish structure expressed as min −x−y s.t. x+y ≤ 4, x ≤ 3.
func smallLP(t *testing.T) *Problem {
	t.Helper()
	p := NewProblem()
	r1 := p.AddRow(LE, 4)
	r2 := p.AddRow(LE, 3)
	p.MustAddVar(-1, 0, math.Inf(1), []Entry{{Row: r1, Coef: 1}, {Row: r2, Coef: 1}})
	p.MustAddVar(-1, 0, math.Inf(1), []Entry{{Row: r1, Coef: 1}})
	return p
}

// TestSolveCountersAndHook checks the always-on counters across a cold
// solve and a warm re-solve. Counters are process globals, so the test
// asserts deltas, not absolutes.
func TestSolveCountersAndHook(t *testing.T) {
	before := Stats()
	p := smallLP(t)
	sol, err := p.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("cold solve: %v %v", sol, err)
	}
	if sol.WarmStarted {
		t.Fatal("cold solve reported WarmStarted")
	}
	if sol.Refactorizations < 1 {
		t.Fatalf("Refactorizations = %d, want ≥ 1 (initBasis factors once)", sol.Refactorizations)
	}
	mid := Stats()
	if mid.Solves != before.Solves+1 {
		t.Fatalf("Solves delta = %d, want 1", mid.Solves-before.Solves)
	}
	if mid.Pivots-before.Pivots != int64(sol.Iterations) {
		t.Fatalf("Pivots delta = %d, want %d", mid.Pivots-before.Pivots, sol.Iterations)
	}
	if got, want := mid.PivotsDevex-before.PivotsDevex, int64(sol.Iterations-sol.BlandPivots); got != want {
		t.Fatalf("PivotsDevex delta = %d, want %d", got, want)
	}
	if mid.Refactorizations-before.Refactorizations != int64(sol.Refactorizations) {
		t.Fatalf("Refactorizations delta = %d, want %d",
			mid.Refactorizations-before.Refactorizations, sol.Refactorizations)
	}
	if mid.WarmAttempts != before.WarmAttempts || mid.WarmHits != before.WarmHits {
		t.Fatal("cold solve moved the warm counters")
	}

	warmSol, err := p.SolveFrom(sol.Basis())
	if err != nil || warmSol.Status != Optimal {
		t.Fatalf("warm solve: %v %v", warmSol, err)
	}
	if !warmSol.WarmStarted {
		t.Fatal("re-solve from the optimal basis did not warm-start")
	}
	after := Stats()
	if after.WarmAttempts != mid.WarmAttempts+1 || after.WarmHits != mid.WarmHits+1 {
		t.Fatalf("warm counters delta = attempts %d hits %d, want 1 and 1",
			after.WarmAttempts-mid.WarmAttempts, after.WarmHits-mid.WarmHits)
	}
	if after.Solves != mid.Solves+1 {
		t.Fatalf("Solves delta = %d, want 1", after.Solves-mid.Solves)
	}

	// A nil basis goes straight to the cold path: no warm attempt.
	if _, err := p.SolveFrom(nil); err != nil {
		t.Fatal(err)
	}
	if got := Stats().WarmAttempts; got != after.WarmAttempts {
		t.Fatalf("SolveFrom(nil) moved WarmAttempts to %d", got)
	}
}
