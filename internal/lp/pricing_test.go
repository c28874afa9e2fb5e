package lp

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// solveNoRetry solves p via the primary no-retry path, so pivot counts
// are not polluted by perturbation retries.
func solveNoRetry(t testing.TB, p *Problem) *Solution {
	t.Helper()
	sol, err := p.solveOnce(0, nil)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	return sol
}

// pivotBaseline mirrors testdata/lp/pivot_baseline.json: pinned
// deterministic pivot, scan and factorization-work counts on the seed-4
// fixture.
type pivotBaseline struct {
	DevexPivots  int `json:"devex_pivots"`
	DevexScans   int `json:"devex_scans"`
	FactorVisits int `json:"factor_visits"`
}

// referenceFactorVisits is what factorBasisReference's per-step rescans
// visit over the 42 refactorizations of the fixture solve
// (TestFactorMatchesReference re-measures it).
const referenceFactorVisits = 29_102_042

// TestPivotCountGuard is the pivot-count regression guard: the solver is
// deterministic (no randomness, no map-order dependence, no
// parallelism), so its pivot and scan counts on the seed-4 master LP are
// exact machine-independent integers. A >10% regression against the
// pinned baseline fails; a big improvement nags for a re-pin. The guard
// also enforces a headline: the refactorizations of the solve must visit
// at most a tenth of the entries the rescanning reference factorization
// visited.
func TestPivotCountGuard(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/lp/pivot_baseline.json")
	if err != nil {
		t.Fatalf("read baseline: %v", err)
	}
	var base pivotBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("parse baseline: %v", err)
	}
	p, ws := loadFixture(t, "../../testdata/lp/random100-u140-seed4.lp.gz"), &workspace{}
	p.ws.Store(ws) // a fresh workspace: its visits are this solve's
	sol := solveNoRetry(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status %v, want optimal", sol.Status)
	}
	check := func(name string, got, pinned int) {
		if pinned <= 0 {
			t.Fatalf("%s baseline %d not positive — baseline file corrupt?", name, pinned)
		}
		if float64(got) > 1.10*float64(pinned) {
			t.Errorf("%s = %d regressed >10%% over pinned %d — investigate before re-pinning", name, got, pinned)
		} else if float64(got) < 0.90*float64(pinned) {
			t.Logf("%s = %d improved >10%% under pinned %d — re-pin testdata/lp/pivot_baseline.json to lock it in", name, got, pinned)
		}
	}
	check("devex pivots", sol.Iterations, base.DevexPivots)
	check("devex scans", sol.PricingScans, base.DevexScans)
	check("factor visits", ws.fw.visits, base.FactorVisits)
	if 10*ws.fw.visits > referenceFactorVisits {
		t.Errorf("factor visits %d not ≤ a tenth of the reference's %d", ws.fw.visits, referenceFactorVisits)
	}
}

// BenchmarkSimplexPricing measures a cold solve of the seed-4 master LP
// — the microbenchmark behind the PR 8 row of the README trajectory
// table. pivots/op and scans/op are reported so a time delta can be
// attributed.
func BenchmarkSimplexPricing(b *testing.B) {
	p := loadFixture(b, "../../testdata/lp/random100-u140-seed4.lp.gz")
	b.ResetTimer()
	var pivots, scans int
	for i := 0; i < b.N; i++ {
		sol := solveNoRetry(b, p)
		pivots += sol.Iterations
		scans += sol.PricingScans
	}
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
	b.ReportMetric(float64(scans)/float64(b.N), "scans/op")
}

// TestMaintainedReducedCostsMatchRecompute runs checkReducedCosts over
// the seed-4 fixture and the random LPs of randomLPClasses. Each run must
// have read d after pivot-row updates and held it bit for bit at least
// once, or the check proved nothing.
func TestMaintainedReducedCostsMatchRecompute(t *testing.T) {
	vacuous := func(t *testing.T, c *reducedCostCheck) {
		t.Helper()
		if c.updated == 0 || c.exact == 0 {
			t.Fatalf("vacuous: %d scans, %d after pivot-row updates, %d held bit for bit", c.scans, c.updated, c.exact)
		}
	}
	t.Run("fixture", func(t *testing.T) {
		p := loadFixture(t, "../../testdata/lp/random100-u140-seed4.lp.gz")
		c := checkReducedCosts(p)
		if sol := solveNoRetry(t, p); sol.Status != Optimal {
			t.Fatalf("status %v, want optimal", sol.Status)
		}
		if c.err != nil {
			t.Fatal(c.err)
		}
		vacuous(t, c)
	})
	for _, rc := range randomLPClasses {
		t.Run(rc.name, func(t *testing.T) {
			total := &reducedCostCheck{}
			rc.each(t, func(trial int, p *Problem) {
				c := checkReducedCosts(p)
				if _, err := p.Solve(); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if c.err != nil {
					t.Fatalf("trial %d: %v", trial, c.err)
				}
				total.scans += c.scans
				total.updated += c.updated
				total.exact += c.exact
			})
			vacuous(t, total)
		})
	}
}

// TestPricingPassesDoNotAllocate: price and the pivot-row pass run once
// per pivot, so neither may allocate once the workspace has grown.
func TestPricingPassesDoNotAllocate(t *testing.T) {
	p := loadFixture(t, "../../testdata/lp/random100-u140-seed4.lp.gz")
	s, _ := p.newSimplex(0, &workspace{})
	if err := s.initBasis(); err != nil {
		t.Fatal(err)
	}
	// Phase 1's costs: the fixture's slack basis needs artificials.
	cost := make([]float64, len(s.cols))
	for j := s.artBase; j < len(cost); j++ {
		cost[j] = 1
	}
	s.recomputeReducedCosts(cost)
	s.ensureGamma()
	enter, _ := s.price(cost)
	if enter < 0 {
		t.Fatal("no improving column at the starting basis")
	}
	w := make([]float64, s.m)
	s.lu.ftranCol(s.cols[enter], w)
	leave := 0
	for i, v := range w {
		if math.Abs(v) > math.Abs(w[leave]) {
			leave = i
		}
	}
	if n := testing.AllocsPerRun(20, func() { s.price(cost) }); n != 0 {
		t.Errorf("price: %v allocs per call", n)
	}
	if n := testing.AllocsPerRun(20, func() { s.pivotRowUpdate(enter, leave, w) }); n != 0 {
		t.Errorf("pivotRowUpdate: %v allocs per call", n)
	}
}
