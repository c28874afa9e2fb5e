package lp

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"testing"
)

// solveWith solves a copy-free view of p under the given rule via the
// primary no-retry path, so pivot counts are not polluted by
// perturbation retries.
func solveWith(t testing.TB, p *Problem, rule PricingRule) *Solution {
	t.Helper()
	p.Pricing = rule
	sol, err := p.solveOnce(0, nil)
	if err != nil {
		t.Fatalf("%v solve: %v", rule, err)
	}
	return sol
}

// TestDevexDantzigEquivalence is the randomized equivalence suite: both
// pricing rules must agree on status and optimal objective on every
// instance — pricing chooses the path to the optimum, never the optimum
// itself — and Devex must not spend materially more pivots than Dantzig
// in aggregate. 250 instances, sized to exercise partial pricing's
// cursor wraparound as well as the narrow-problem fallback.
func TestDevexDantzigEquivalence(t *testing.T) {
	rng := rand.New(rand.NewPCG(88, 11))
	var optimal, infeasible int
	var devexPivots, dantzigPivots int
	for trial := 0; trial < 250; trial++ {
		m := 1 + rng.IntN(10)
		n := 1 + rng.IntN(24)
		mk := func() *Problem {
			// Re-derive the instance from a forked deterministic stream so
			// the two rules solve bit-identical problems.
			sub := rand.New(rand.NewPCG(uint64(trial), 997))
			p := NewProblem()
			for i := 0; i < m; i++ {
				p.AddRow([]Sense{LE, EQ, GE}[sub.IntN(3)], sub.Float64()*8-2)
			}
			for j := 0; j < n; j++ {
				lo := 0.0
				if sub.Float64() < 0.3 {
					lo = sub.Float64() - 0.5
				}
				up := lo + sub.Float64()*6
				var entries []Entry
				for i := 0; i < m; i++ {
					if sub.Float64() < 0.5 {
						entries = append(entries, Entry{Row: i, Coef: sub.Float64()*4 - 2})
					}
				}
				if _, err := p.AddVar(sub.Float64()*4-2, lo, up, entries); err != nil {
					t.Fatal(err)
				}
			}
			return p
		}
		dv := solveWith(t, mk(), PricingDevex)
		dz := solveWith(t, mk(), PricingDantzig)
		if dv.Status != dz.Status {
			t.Fatalf("trial %d (%dx%d): devex %v, dantzig %v", trial, m, n, dv.Status, dz.Status)
		}
		if dv.Status != Optimal {
			infeasible++
			continue
		}
		optimal++
		if d := math.Abs(dv.Obj - dz.Obj); d > 1e-6*(1+math.Abs(dz.Obj)) {
			t.Fatalf("trial %d (%dx%d): devex obj %.12g ≠ dantzig obj %.12g (Δ %g)",
				trial, m, n, dv.Obj, dz.Obj, d)
		}
		devexPivots += dv.Iterations
		dantzigPivots += dz.Iterations
	}
	if optimal < 20 || infeasible < 20 {
		t.Fatalf("fuzz mix degenerate: %d optimal, %d infeasible of 250", optimal, infeasible)
	}
	// On instances this small Devex has no room to win, but it must not
	// lose: aggregate pivots within 25% of Dantzig (plus slack for the
	// handful of single-digit-pivot instances where one extra step is a
	// large relative change).
	if float64(devexPivots) > 1.25*float64(dantzigPivots)+100 {
		t.Fatalf("devex spent %d pivots to dantzig's %d across the suite", devexPivots, dantzigPivots)
	}
	t.Logf("suite pivots: devex %d, dantzig %d over %d optimal instances", devexPivots, dantzigPivots, optimal)
}

// pivotBaseline mirrors testdata/lp/pivot_baseline.json: pinned
// deterministic pivot, scan and factorization-work counts on the seed-4
// fixture.
type pivotBaseline struct {
	DevexPivots   int `json:"devex_pivots"`
	DevexScans    int `json:"devex_scans"`
	DantzigPivots int `json:"dantzig_pivots"`
	DantzigScans  int `json:"dantzig_scans"`
	FactorVisits  int `json:"factor_visits"`
}

// referenceFactorVisits is what factorBasisReference's per-step rescans
// visit over the 67 refactorizations of the Devex fixture solve
// (TestFactorMatchesReference re-measures it).
const referenceFactorVisits = 47_081_508

// TestPivotCountGuard is the pivot-count regression guard: the solver is
// deterministic (no randomness, no map-order dependence, no
// parallelism), so both rules' pivot and scan counts on the seed-4
// master LP are exact machine-independent integers. A >10% regression
// against the pinned baseline fails; a big improvement nags for a
// re-pin. The guard also enforces two headlines: Devex must need at most
// half of Dantzig's pivots on this instance, and the refactorizations of
// the Devex solve must visit at most a tenth of the entries the
// rescanning reference factorization visited.
func TestPivotCountGuard(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/lp/pivot_baseline.json")
	if err != nil {
		t.Fatalf("read baseline: %v", err)
	}
	var base pivotBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("parse baseline: %v", err)
	}
	dvProblem, dvWS := loadFixture(t, "../../testdata/lp/random100-u140-seed4.lp.gz"), &workspace{}
	dvProblem.ws.Store(dvWS) // a fresh workspace: its visits are this solve's
	dv := solveWith(t, dvProblem, PricingDevex)
	dz := solveWith(t, loadFixture(t, "../../testdata/lp/random100-u140-seed4.lp.gz"), PricingDantzig)
	if dv.Status != Optimal || dz.Status != Optimal {
		t.Fatalf("status devex=%v dantzig=%v, want optimal", dv.Status, dz.Status)
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
	check("devex pivots", dv.Iterations, base.DevexPivots)
	check("devex scans", dv.PricingScans, base.DevexScans)
	check("dantzig pivots", dz.Iterations, base.DantzigPivots)
	check("dantzig scans", dz.PricingScans, base.DantzigScans)
	check("factor visits", dvWS.fw.visits, base.FactorVisits)
	if 10*dvWS.fw.visits > referenceFactorVisits {
		t.Errorf("factor visits %d not ≤ a tenth of the reference's %d", dvWS.fw.visits, referenceFactorVisits)
	}
	if 2*dv.Iterations > dz.Iterations {
		t.Errorf("devex pivots %d not ≤ half of dantzig's %d on the seed-4 fixture", dv.Iterations, dz.Iterations)
	}
}

// TestPricingRuleResolution pins the PricingDefault plumbing: the zero
// value resolves to the process default, SetPricing flips it for
// already-built problems, and Solution.Rule reports the resolved rule.
func TestPricingRuleResolution(t *testing.T) {
	mk := func() *Problem {
		p := NewProblem()
		r := p.AddRow(LE, 4)
		p.MustAddVar(-1, 0, 3, []Entry{{Row: r, Coef: 1}})
		return p
	}
	p := mk()
	if p.Pricing != PricingDefault {
		t.Fatalf("NewProblem pricing = %v, want PricingDefault", p.Pricing)
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Rule != PricingDevex {
		t.Fatalf("default resolved to %v, want devex", sol.Rule)
	}
	SetPricing(PricingDantzig)
	defer SetPricing(PricingDevex)
	sol, err = mk().Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Rule != PricingDantzig {
		t.Fatalf("after SetPricing(dantzig): rule %v", sol.Rule)
	}
}

// BenchmarkSimplexPricing measures a cold solve of the seed-4 master LP
// under each pricing rule — the microbenchmark behind the PR 8 row of
// the README trajectory table. pivots/op and scans/op are reported so
// the time delta can be attributed.
func BenchmarkSimplexPricing(b *testing.B) {
	for _, rule := range []PricingRule{PricingDevex, PricingDantzig} {
		b.Run(rule.String(), func(b *testing.B) {
			p := loadFixture(b, "../../testdata/lp/random100-u140-seed4.lp.gz")
			p.Pricing = rule
			b.ResetTimer()
			var pivots, scans int
			for i := 0; i < b.N; i++ {
				sol, err := p.solveOnce(0, nil)
				if err != nil {
					b.Fatal(err)
				}
				pivots += sol.Iterations
				scans += sol.PricingScans
			}
			b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
			b.ReportMetric(float64(scans)/float64(b.N), "scans/op")
		})
	}
}
