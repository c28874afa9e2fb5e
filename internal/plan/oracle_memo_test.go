package plan

import (
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
	"github.com/olive-vne/olive/internal/workload"
)

// oracleWork sums the DP fills and memo-table hits of the Solver's two
// oracles.
func (s *Solver) oracleWork() (fills, hits int64) {
	a, b := s.seedOracle.Work(), s.priceOracle.Work()
	return a.DPFills + b.DPFills, a.DPTableHits + b.DPTableHits
}

// TestPricingFillsOncePerAppPerRound is the work guard for the pricing
// oracle on the fig-scale instance: a Build fills at most one DP table per
// application per price vector — the cost prices of the seeding and one
// dual-adjusted vector per pricing round — however many classes ask.
// Every class of every round is priced by the oracle, exactly once, and
// every oracle query (seeding asks one per class too) is a fill or a memo
// hit. The second Build is warm on the same Solver over shifted demands,
// the regime of SLOTOFF's per-slot rebuilds.
func TestPricingFillsOncePerAppPerRound(t *testing.T) {
	solver, classes, opts := benchInstance(t)
	opts.MaxPricingRounds = DefaultOptions().MaxPricingRounds
	apps := solver.apps
	for build := 0; build < 2; build++ {
		ps := Stats()
		f0, h0 := solver.oracleWork()
		p, err := solver.Build(classes, opts)
		if err != nil {
			t.Fatal(err)
		}
		f1, h1 := solver.oracleWork()
		calls := Stats().PriceOracleCalls - ps.PriceOracleCalls
		fills, hits := f1-f0, h1-h0
		t.Logf("build %d: %d classes over %d apps, %d pricing rounds: %d oracle calls, %d DP fills + %d table hits",
			build, len(classes), len(apps), p.PricingRounds, calls, fills, hits)
		if p.PricingRounds < 2 {
			t.Fatalf("build %d priced %d rounds; the guard needs several", build, p.PricingRounds)
		}
		if limit := int64(len(apps) * (p.PricingRounds + 1)); fills > limit {
			t.Fatalf("build %d: %d DP fills, want at most apps × (rounds + 1) = %d", build, fills, limit)
		}
		if want := int64(p.PricingRounds * len(classes)); calls != want {
			t.Fatalf("build %d: %d oracle calls, want rounds × classes = %d", build, calls, want)
		}
		if want := calls + int64(len(classes)); fills+hits != want {
			t.Fatalf("build %d: %d fills + %d table hits, want one per class query asked (%d pricing + %d seeding)", build, fills, hits, calls, len(classes))
		}
		for i := range classes {
			classes[i].Demand *= 1.15
		}
	}
}

// TestBuildUnchangedByOracleMemo replays Builds with and without the
// oracle's table memo and demands the same plan to the last bit. The memo
// is keyed by *vnet.App, so the unmemoized twin needs no switch: give
// every class its own copy of its application and no table is ever asked
// twice under one price vector — each class query runs the full DP, as
// every query did before tables were kept. Two Builds per solver, the
// second warm-started over scaled demands, so stale tables from the first
// Build's last round are in the memo when the second starts.
func TestBuildUnchangedByOracleMemo(t *testing.T) {
	g := topo.MustBuild(topo.Iris, 3)
	rng := rand.New(rand.NewPCG(3, 77))
	apps := vnet.DefaultMix(vnet.DefaultParams(), rng)
	wp := workload.DefaultParams().WithUtilization(1.3)
	wp.Slots = 120
	tr, err := workload.GenerateMMPP(g, wp, rng)
	if err != nil {
		t.Fatal(err)
	}
	classes, err := Aggregate(tr, len(apps), 0.8, 50, rand.New(rand.NewPCG(5, 77)))
	if err != nil {
		t.Fatal(err)
	}
	ownApps := make([]*vnet.App, len(classes))
	ownClasses := slices.Clone(classes)
	for i, c := range classes {
		cp := *apps[c.App]
		ownApps[i] = &cp
		ownClasses[i].App = i
	}

	memo, plain := NewSolver(g, apps), NewSolver(g, ownApps)
	for build := 0; build < 2; build++ {
		mf0, mh0 := memo.oracleWork()
		got, err := memo.Build(classes, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		mf1, mh1 := memo.oracleWork()
		pf0, ph0 := plain.oracleWork()
		want, err := plain.Build(ownClasses, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		pf1, ph1 := plain.oracleWork()
		memoFills, plainFills := mf1-mf0, pf1-pf0
		// The twin's only repeats are the second Build's seeding queries:
		// the cost prices never move, so each class finds the table its
		// own first seeding query filled.
		if twinHits := ph1 - ph0; twinHits != int64(build*len(classes)) {
			t.Fatalf("build %d: the per-class-app twin hit the memo %d times; it is no reference", build, twinHits)
		}
		if mh1 == mh0 || memoFills >= plainFills {
			t.Fatalf("build %d: the memo saved nothing (%d fills vs %d)", build, memoFills, plainFills)
		}
		if got.Obj != want.Obj || got.PricingRounds != want.PricingRounds || got.Iterations != want.Iterations {
			t.Fatalf("build %d: obj %v rounds %d pivots %d, without the memo obj %v rounds %d pivots %d",
				build, got.Obj, got.PricingRounds, got.Iterations, want.Obj, want.PricingRounds, want.Iterations)
		}
		if got.PricingRounds < 2 {
			t.Fatalf("build %d priced %d rounds; the replay needs several", build, got.PricingRounds)
		}
		for ci := range want.Classes {
			a, b := got.Classes[ci], want.Classes[ci]
			if a.Rejected != b.Rejected || len(a.Shares) != len(b.Shares) {
				t.Fatalf("build %d class %d: rejected %v with %d shares, without the memo %v with %d", build, ci, a.Rejected, len(a.Shares), b.Rejected, len(b.Shares))
			}
			for si := range b.Shares {
				x, y := a.Shares[si], b.Shares[si]
				if x.Fraction != y.Fraction || embSignature(x.E) != embSignature(y.E) {
					t.Fatalf("build %d class %d share %d: %v of %v, without the memo %v of %v", build, ci, si, x.Fraction, x.E.NodeMap, y.Fraction, y.E.NodeMap)
				}
			}
		}
		for i := range classes {
			classes[i].Demand *= 1.15
			ownClasses[i].Demand = classes[i].Demand
		}
	}
}
