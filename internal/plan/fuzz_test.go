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

// FuzzPlanBuild decodes its input into small plan options — Quantiles
// 1–4, InitialCandidates 0–3, MaxPricingRounds 0–3 — and one to four
// classes on Iris, each with an app index in [−1, len(apps)], an ingress
// in [−1, NumNodes()] and a demand from fuzzDemands. A class that
// Class.Check refuses must make Build fail. A Build that succeeds must
// return a plan that passes Validate, keeps every class ingress on a
// substrate node, and has the same objective bits when built again on a
// fresh Solver.
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
	// Masters whose simplex solution fails Validate: a warm-started
	// pricing round that ends with a negative fraction (two classes of
	// demand 1e6), and 1e300 demands beside demands of 20.
	f.Add([]byte{0, 3, 1, 1, 3, 50, 7, 3, 16, 7})
	f.Add([]byte{3, 2, 1, 3, 1, 3, 11, 2, 50, 11, 1, 48, 6, 1, 50, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
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
		classes := make([]Class, 1+next()%4)
		malformed := false
		for i := range classes {
			classes[i] = Class{
				App:     next()%(len(apps)+2) - 1,
				Ingress: graph.NodeID(next()%(n+2) - 1),
				Demand:  fuzzDemands[next()%len(fuzzDemands)],
			}
			malformed = malformed || classes[i].Check(g, len(apps)) != nil
		}
		p, err := Build(g, apps, classes, opts)
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
	})
}
