package plan

import (
	"math"
	"testing"

	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
)

// fuzzDemands is the demand table FuzzPlanBuild draws from: plannable
// demands beside every kind Class.Check must refuse, and the extreme
// finite ones it must accept.
var fuzzDemands = []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1e-300, 1e300, 1e6, 0.5, 1, 5, 20}

// decodeBuild decodes data into small plan options — Quantiles 1–4,
// InitialCandidates 0–3, MaxPricingRounds 0–3 — and one to four classes
// on g, each with an app index in [−1, nApps], an ingress in
// [−1, NumNodes()] and a demand from fuzzDemands. Missing bytes read as 0.
// The bytes left over decode a second class set the same way; with none
// left, the second set is the first.
func decodeBuild(data []byte, g *graph.Graph, nApps int) (Options, []Class, []Class) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	opts := DefaultOptions()
	opts.Quantiles = 1 + next()%4
	opts.InitialCandidates = next() % 4
	opts.MaxPricingRounds = next() % 4
	decode := func() []Class {
		classes := make([]Class, 1+next()%4)
		for i := range classes {
			classes[i] = Class{
				App:     next()%(nApps+2) - 1,
				Ingress: graph.NodeID(next()%(g.NumNodes()+2) - 1),
				Demand:  fuzzDemands[next()%len(fuzzDemands)],
			}
		}
		return classes
	}
	first := decode()
	if len(data) == 0 {
		return opts, first, first
	}
	return opts, first, decode()
}

// Two class sets that once gave an "Optimal" master vertex that is not
// primal feasible: a warm-started pricing round over two classes of
// demand 1e6 ended with a basic fraction at −6.4e-4, and a cold solve
// over 1e300 demands beside demands of 20 with a fraction far below 0.
// The first now plans from its warm start: the ratio test holds rows
// whose delta is too small to pivot on to their bounds. The second spans
// more than maxDemandSpan, so Build refuses it before building a master.
var (
	seedWarmNegativeFraction = []byte{0, 3, 1, 1, 3, 50, 7, 3, 16, 7}
	seedColdHugeDemands      = []byte{3, 2, 1, 3, 1, 3, 11, 2, 50, 11, 1, 48, 6, 1, 50, 6}
)

// TestBuildRefusesInfeasibleVertex holds Build to the two class sets
// above. For the first, Build must return a plan that passes Validate
// (lp refuses an infeasible vertex through its own primal check, and a
// warm solve that ends on one falls back cold). The 1e300
// demands beside demands of 20 must be refused before any LP is solved,
// with an error naming both classes.
func TestBuildRefusesInfeasibleVertex(t *testing.T) {
	g := topo.MustBuild(topo.Iris, 1)
	apps := vnet.DefaultMix(vnet.DefaultParams(), testRNG(3))

	opts, classes, _ := decodeBuild(seedWarmNegativeFraction, g, len(apps))
	p, err := Build(g, apps, classes, opts)
	if err != nil {
		t.Fatalf("classes %v: %v, want the cold fallback's plan", classes, err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatalf("classes %v: %v", classes, err)
	}

	opts, classes, _ = decodeBuild(seedColdHugeDemands, g, len(apps))
	solves := Stats().MasterSolves
	_, err = Build(g, apps, classes, opts)
	if err == nil {
		t.Fatalf("classes %v: planned", classes)
	}
	want := "plan: class (0,47) has demand 1e+300, more than 1e+07 times the demand 20 of class (0,2)"
	if err.Error() != want {
		t.Fatalf("classes %v: %v, want %q", classes, err, want)
	}
	if got := Stats().MasterSolves; got != solves {
		t.Fatalf("classes %v: %d master solves before the refusal", classes, got-solves)
	}
}

// FuzzPlanBuild decodes its input into plan options and two class sets
// (decodeBuild). A class that Class.Check refuses must make Build fail. A
// Build that succeeds must return a plan that passes Validate, keeps every
// class ingress on a substrate node, reports a Lagrangian bound no
// higher than its objective, and has the same objective bits when built
// again on a fresh Solver. The second set is then built on the
// first Build's Solver, whose column pool now seeds it: that plan must
// pass Validate, and the Build may fail only where a fresh Solver's Build
// of the second set fails too.
func FuzzPlanBuild(f *testing.F) {
	g := topo.MustBuild(topo.Iris, 1)
	apps := vnet.DefaultMix(vnet.DefaultParams(), testRNG(3))
	n := g.NumNodes()
	// A plannable class beside one at ingress −1 (byte 0), and beside one
	// at ingress NumNodes() (byte n+1): Build must refuse both.
	f.Add([]byte{0, 2, 1, 1, 1, 4, 9, 2, 0, 9})
	f.Add([]byte{0, 2, 1, 1, 1, 4, 9, 2, byte(n + 1), 9})
	f.Add([]byte{1, 1, 2, 3, 1, 3, 8, 2, 7, 9, 3, 20, 10, 4, 30, 7})
	f.Add([]byte{3, 0, 0, 0, 2, 5, 6})
	f.Add([]byte{0, 3, 3, 2, 1, 4, 0, 2, 11, 2})
	// Class sets whose master vertex once was not primal feasible: the
	// warm one plans, and the other spans more than maxDemandSpan, so
	// Build refuses it (TestBuildRefusesInfeasibleVertex).
	f.Add(seedWarmNegativeFraction)
	f.Add(seedColdHugeDemands)
	// The second set repeats one class of the first and adds one the
	// first lacks, so the pool seeds part of its master.
	f.Add([]byte{1, 1, 2, 3, 1, 3, 8, 2, 7, 9, 3, 20, 10, 4, 30, 7, 1, 1, 3, 9, 2, 12, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		opts, classes, next := decodeBuild(data, g, len(apps))
		malformed := false
		for _, c := range classes {
			malformed = malformed || c.Check(g, len(apps)) != nil
		}
		s := NewSolver(g, apps)
		p, err := s.Build(classes, opts)
		if malformed {
			if err == nil {
				t.Fatalf("classes %v: a malformed class was planned", classes)
			}
			return
		}
		if err != nil {
			return
		}
		if err := p.Validate(g); err != nil {
			t.Fatalf("classes %v: %v", classes, err)
		}
		if !(p.Bound <= p.Obj) || !(p.Gap >= 0) {
			t.Fatalf("classes %v: bound %v, objective %v, gap %v", classes, p.Bound, p.Obj, p.Gap)
		}
		for _, cp := range p.Classes {
			if cp.Class.Ingress < 0 || int(cp.Class.Ingress) >= n {
				t.Fatalf("classes %v: planned class at ingress %d of %d nodes", classes, cp.Class.Ingress, n)
			}
		}
		again, err := Build(g, apps, classes, opts)
		if err != nil {
			t.Fatalf("classes %v: rebuild on a fresh Solver failed: %v", classes, err)
		}
		if math.Float64bits(again.Obj) != math.Float64bits(p.Obj) {
			t.Fatalf("classes %v: objective %v, then %v on a fresh Solver", classes, p.Obj, again.Obj)
		}
		pooled, err := s.Build(next, opts)
		if err != nil {
			if _, freshErr := Build(g, apps, next, opts); freshErr == nil {
				t.Fatalf("classes %v after %v: %v, but a fresh Solver plans them", next, classes, err)
			}
			return
		}
		if err := pooled.Validate(g); err != nil {
			t.Fatalf("classes %v after %v: %v", next, classes, err)
		}
	})
}
