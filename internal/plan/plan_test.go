package plan

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
	"github.com/olive-vne/olive/internal/workload"
)

func testRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 1234)) }

// smallScenario builds a Città Studi substrate with the default app mix
// and a short MMPP history.
func smallScenario(t *testing.T, seed uint64, util float64) (*graph.Graph, []*vnet.App, *workload.Trace) {
	t.Helper()
	g := topo.MustBuild(topo.CittaStudi, seed)
	rng := testRNG(seed)
	apps := vnet.DefaultMix(vnet.DefaultParams(), rng)
	wp := workload.DefaultParams().WithUtilization(util)
	wp.Slots = 150
	tr, err := workload.GenerateMMPP(g, wp, rng)
	if err != nil {
		t.Fatal(err)
	}
	return g, apps, tr
}

func TestAggregateBasics(t *testing.T) {
	g, apps, hist := smallScenario(t, 1, 1.0)
	classes, err := Aggregate(hist, len(apps), 0.8, 50, testRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) == 0 {
		t.Fatal("no classes aggregated")
	}
	edge := map[graph.NodeID]bool{}
	for _, v := range g.EdgeNodes() {
		edge[v] = true
	}
	for _, c := range classes {
		if !edge[c.Ingress] {
			t.Errorf("class ingress %d is not an edge node", c.Ingress)
		}
		if c.Demand <= 0 {
			t.Errorf("class (%d,%d) demand %g ≤ 0", c.App, c.Ingress, c.Demand)
		}
		if c.App < 0 || c.App >= len(apps) {
			t.Errorf("class app %d out of range", c.App)
		}
	}
	// Deterministic ordering.
	for i := 1; i < len(classes); i++ {
		if less(classes[i], classes[i-1]) {
			t.Fatal("classes not sorted")
		}
	}
}

func TestAggregateP80BelowPeak(t *testing.T) {
	_, apps, hist := smallScenario(t, 3, 1.0)
	p80, err := Aggregate(hist, len(apps), 0.8, 50, testRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	p100, err := Aggregate(hist, len(apps), 1.0, 50, testRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(p80) != len(p100) {
		t.Fatalf("class count differs between percentiles: %d vs %d", len(p80), len(p100))
	}
	var lower int
	for i := range p80 {
		if p80[i].Demand < p100[i].Demand {
			lower++
		}
		if p80[i].Demand > p100[i].Demand+1e-6 {
			t.Fatalf("P80 demand %g exceeds P100 %g", p80[i].Demand, p100[i].Demand)
		}
	}
	if lower == 0 {
		t.Error("P80 never strictly below P100 — over-provisioning guard broken")
	}
}

func TestAggregateErrors(t *testing.T) {
	rng := testRNG(1)
	if _, err := Aggregate(nil, 4, 0.8, 10, rng); err == nil {
		t.Error("nil history accepted")
	}
	if _, err := Aggregate(&workload.Trace{Slots: 10}, 4, 1.5, 10, rng); err == nil {
		t.Error("alpha > 1 accepted")
	}
	bad := &workload.Trace{Slots: 10, Requests: []workload.Request{{ID: 0, App: 9, Demand: 1, Duration: 1}}}
	if _, err := Aggregate(bad, 4, 0.8, 10, rng); err == nil {
		t.Error("out-of-range app accepted")
	}
}

// TestAggregateRejectsOutOfRangeRequests: olive.Aggregate passes any
// trace through, so a request that would index the demand deltas out of
// range (or subtract demand it never added) must come back as an error
// naming the request — not a panic, and not a silently skewed series.
// BuildWindowed reads the same deltas and must refuse the same requests.
func TestAggregateRejectsOutOfRangeRequests(t *testing.T) {
	g := topo.MustBuild(topo.Iris, 1)
	apps := vnet.DefaultMix(vnet.DefaultParams(), testRNG(3))
	ok := workload.Request{ID: 0, App: 1, Arrive: 3, Duration: 2, Demand: 5}
	for name, tc := range map[string]struct {
		req  workload.Request
		want string
	}{
		"negative arrival":  {workload.Request{ID: 7, App: 1, Arrive: -1, Duration: 2, Demand: 5}, "plan: request 7 arrives at -1 outside [0,10)"},
		"arrival at Slots":  {workload.Request{ID: 7, App: 1, Arrive: 10, Duration: 2, Demand: 5}, "plan: request 7 arrives at 10 outside [0,10)"},
		"arrival past end":  {workload.Request{ID: 7, App: 1, Arrive: 11, Duration: 2, Demand: 5}, "plan: request 7 arrives at 11 outside [0,10)"},
		"zero duration":     {workload.Request{ID: 7, App: 1, Arrive: 3, Duration: 0, Demand: 5}, "plan: request 7 has duration 0 < 1"},
		"negative duration": {workload.Request{ID: 7, App: 1, Arrive: 3, Duration: -5, Demand: 5}, "plan: request 7 has duration -5 < 1"},
	} {
		hist := &workload.Trace{Slots: 10, Requests: []workload.Request{ok, tc.req}}
		classes, err := Aggregate(hist, 4, 0.8, 10, testRNG(1))
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v (classes %v), want %q", name, err, classes, tc.want)
		}
		if _, err := BuildWindowed(g, apps, hist, 10, 2, DefaultOptions(), testRNG(1)); err == nil || err.Error() != tc.want {
			t.Errorf("%s: BuildWindowed err = %v, want %q", name, err, tc.want)
		}
	}
	// The boundary cases stay legal: last slot, departure past the end.
	hist := &workload.Trace{Slots: 10, Requests: []workload.Request{ok, {ID: 1, App: 1, Arrive: 9, Duration: 40, Demand: 5}}}
	if _, err := Aggregate(hist, 4, 0.8, 10, testRNG(1)); err != nil {
		t.Errorf("request in the last slot rejected: %v", err)
	}
}

// TestAggregateEmptySlotsReadZero: once every request of a class has
// departed, its active demand is exactly 0. A running sum of 0.1 + 0.2
// − 0.1 − 0.2 leaves 2.8e-17, which a median would otherwise make the
// class's demand.
func TestAggregateEmptySlotsReadZero(t *testing.T) {
	hist := &workload.Trace{Slots: 100, Requests: []workload.Request{
		{ID: 0, App: 1, Ingress: 2, Arrive: 0, Duration: 2, Demand: 0.1},
		{ID: 1, App: 1, Ingress: 2, Arrive: 1, Duration: 2, Demand: 0.2},
	}}
	diffs, err := demandDeltas(hist, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := make([]float64, hist.Slots)
	activeDemand(diffs[classKey{app: 1, ingress: 2}], s)
	for slot, v := range s[3:] {
		if v != 0 {
			t.Fatalf("slot %d: active demand %g with no request active", slot+3, v)
		}
	}
	classes, err := Aggregate(hist, 4, 0.5, 50, testRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 0 {
		t.Fatalf("median of a mostly empty series planned as %v", classes)
	}
}

// TestDemandSpanBound: a class set spanning exactly maxDemandSpan is
// accepted, and one spanning more is refused naming both classes.
func TestDemandSpanBound(t *testing.T) {
	classes := []Class{{App: 0, Ingress: 1, Demand: 3}, {App: 2, Ingress: 0, Demand: 3 * maxDemandSpan}, {App: 1, Ingress: 4, Demand: 50}}
	if err := checkDemandSpan(classes); err != nil {
		t.Fatalf("span of exactly maxDemandSpan refused: %v", err)
	}
	classes[1].Demand = math.Nextafter(classes[1].Demand, math.Inf(1))
	want := "plan: class (2,0) has demand 3.0000000000000004e+07, more than 1e+07 times the demand 3 of class (0,1)"
	if err := checkDemandSpan(classes); err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

// TestDemandScaleBound: a class of exactly maxDemandSpan times the
// largest element capacity is accepted, and the next float up refused
// with both numbers named.
func TestDemandScaleBound(t *testing.T) {
	g := topo.MustBuild(topo.Iris, 1)
	maxCap := 0.0
	for e := range g.NumElements() {
		maxCap = math.Max(maxCap, g.ElementCap(graph.ElementID(e)))
	}
	classes := []Class{{App: 0, Ingress: 1, Demand: 3}, {App: 1, Ingress: 2, Demand: maxDemandSpan * maxCap}}
	if err := checkDemandScale(g, classes); err != nil {
		t.Fatalf("demand of exactly maxDemandSpan capacities refused: %v", err)
	}
	classes[1].Demand = math.Nextafter(classes[1].Demand, math.Inf(1))
	want := fmt.Sprintf("plan: class (1,2) has demand %g, more than 1e+07 times the largest element capacity %g", classes[1].Demand, maxCap)
	if err := checkDemandScale(g, classes); err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

func TestBuildPlanOnUncongestedSubstrate(t *testing.T) {
	g, apps, hist := smallScenario(t, 4, 0.6)
	p, err := BuildFromHistory(g, apps, hist, DefaultOptions(), testRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	if p.Empty() {
		t.Fatal("empty plan from non-empty history")
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	// At 60% utilization the plan should allocate nearly everything.
	var rej, tot float64
	for _, cp := range p.Classes {
		rej += cp.Rejected * cp.Class.Demand
		tot += cp.Class.Demand
	}
	// Zipf popularity concentrates demand on the hottest edge node, so
	// a small planned rejection is expected even at 60% aggregate edge
	// utilization; anything beyond ~10% would signal a broken LP.
	if frac := rej / tot; frac > 0.10 {
		t.Errorf("plan rejects %.1f%% of demand at 60%% utilization", frac*100)
	}
}

func TestBuildPlanOverloadRejectsWithBalance(t *testing.T) {
	g, apps, hist := smallScenario(t, 5, 1.6)
	opts := DefaultOptions()
	p, err := BuildFromHistory(g, apps, hist, opts, testRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	var rej float64
	for _, cp := range p.Classes {
		rej += cp.Rejected
	}
	if rej == 0 {
		t.Fatal("no rejection at 160% utilization — capacity constraints not binding")
	}
	// Quantiles should spread rejection across classes: Jain index over
	// rejected fractions well above the single-victim value.
	if b := p.RejectionBalance(); b < 0.3 {
		t.Errorf("rejection balance %g suspiciously low with quantiles", b)
	}
}

func TestQuantilesImproveBalance(t *testing.T) {
	g, apps, hist := smallScenario(t, 6, 1.8)
	classes, err := Aggregate(hist, len(apps), 0.8, 50, testRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	balance := map[int]float64{}
	for _, q := range []int{1, 10} {
		opts := DefaultOptions()
		opts.Quantiles = q
		p, err := Build(g, apps, classes, opts)
		if err != nil {
			t.Fatal(err)
		}
		balance[q] = p.RejectionBalance()
	}
	if balance[10] < balance[1]-0.05 {
		t.Errorf("10 quantiles balance %g worse than 1 quantile %g", balance[10], balance[1])
	}
}

func TestBuildEmptyClasses(t *testing.T) {
	g := topo.MustBuild(topo.CittaStudi, 1)
	p, err := Build(g, nil, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !p.Empty() {
		t.Fatal("plan from no classes not empty")
	}
	if p.Lookup(0, 0) != nil {
		t.Fatal("Lookup on empty plan returned a class")
	}
}

func TestBuildOptionValidation(t *testing.T) {
	g, apps, hist := smallScenario(t, 7, 1.0)
	classes, err := Aggregate(hist, len(apps), 0.8, 20, testRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Quantiles = 0
	if _, err := Build(g, apps, classes, opts); err == nil {
		t.Error("Quantiles=0 accepted")
	}
	opts = DefaultOptions()
	opts.InitialCandidates = -1
	if _, err := Build(g, apps, classes, opts); err == nil {
		t.Error("InitialCandidates=-1 accepted")
	}
	for name, bad := range map[string]Class{
		"bad app index":    {App: 99, Ingress: 0, Demand: 5},
		"zero demand":      {App: 0, Ingress: 0, Demand: 0},
		"negative demand":  {App: 0, Ingress: 0, Demand: -1},
		"NaN demand":       {App: 0, Ingress: 0, Demand: math.NaN()},
		"infinite demand":  {App: 0, Ingress: 0, Demand: math.Inf(1)},
		"-infinite demand": {App: 0, Ingress: 0, Demand: math.Inf(-1)},
	} {
		if _, err := Build(g, apps, []Class{bad}, DefaultOptions()); err == nil {
			t.Errorf("class with %s accepted", name)
		}
	}
}

// TestBuildRejectsIngressOffSubstrate: a class whose ingress is not a
// substrate node is an error, not a class the plan rejects in full
// beside a plannable one.
func TestBuildRejectsIngressOffSubstrate(t *testing.T) {
	g := topo.MustBuild(topo.Iris, 1)
	apps := vnet.DefaultMix(vnet.DefaultParams(), testRNG(3))
	good := Class{App: 0, Ingress: 3, Demand: 5}
	if _, err := Build(g, apps, []Class{good}, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	for _, ingress := range []graph.NodeID{-1, graph.NodeID(g.NumNodes()), 1 << 20} {
		bad := Class{App: 1, Ingress: ingress, Demand: 5}
		if _, err := Build(g, apps, []Class{good, bad}, DefaultOptions()); err == nil {
			t.Errorf("class at ingress %d of %d nodes accepted", ingress, g.NumNodes())
		}
	}
}

func TestLookupFindsEveryClass(t *testing.T) {
	g, apps, hist := smallScenario(t, 8, 1.0)
	p, err := BuildFromHistory(g, apps, hist, DefaultOptions(), testRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Classes {
		c := p.Classes[i].Class
		got := p.Lookup(c.App, c.Ingress)
		if got != &p.Classes[i] {
			t.Fatalf("Lookup(%d,%d) returned wrong class", c.App, c.Ingress)
		}
	}
	if p.Lookup(0, graph.NodeID(10_000)) != nil {
		t.Error("Lookup of unknown ingress returned a class")
	}
}

// TestLookupWithoutIndex: a Plan assembled as a literal, not by Build,
// has no lookup index. Lookup and LookupIndex still find its classes,
// and answer every key as the index buildIndex makes would: the later of
// two classes with one key wins.
func TestLookupWithoutIndex(t *testing.T) {
	p := &Plan{Classes: []ClassPlan{
		{Class: Class{App: 0, Ingress: 1, Demand: 2}},
		{Class: Class{App: 1, Ingress: 1, Demand: 3}},
		{Class: Class{App: 0, Ingress: 1, Demand: 4}},
	}}
	if i, ok := p.LookupIndex(0, 1); !ok || i != 2 {
		t.Fatalf("LookupIndex(0, 1) = %d, %v, want 2, true", i, ok)
	}
	if got := p.Lookup(1, 1); got != &p.Classes[1] {
		t.Fatalf("Lookup(1, 1) = %v, want class 1", got)
	}
	indexed := &Plan{Classes: p.Classes}
	indexed.buildIndex()
	for app := -1; app <= 2; app++ {
		for ingress := graph.NodeID(-1); ingress <= 2; ingress++ {
			i, ok := p.LookupIndex(app, ingress)
			wi, wok := indexed.LookupIndex(app, ingress)
			if i != wi || ok != wok {
				t.Fatalf("LookupIndex(%d, %d) = %d, %v without the index, %d, %v with it", app, ingress, i, ok, wi, wok)
			}
			if (p.Lookup(app, ingress) != nil) != ok {
				t.Fatalf("Lookup(%d, %d) disagrees with LookupIndex", app, ingress)
			}
		}
	}
}

func TestColumnGenerationImprovesObjective(t *testing.T) {
	g, apps, hist := smallScenario(t, 9, 1.4)
	classes, err := Aggregate(hist, len(apps), 0.8, 50, testRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	seedOnly := DefaultOptions()
	seedOnly.MaxPricingRounds = 0
	p0, err := Build(g, apps, classes, seedOnly)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Build(g, apps, classes, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if full.Obj > p0.Obj+1e-6 {
		t.Fatalf("column generation worsened objective: %g → %g", p0.Obj, full.Obj)
	}
	if full.PricingRounds == 0 {
		t.Error("no pricing rounds recorded for the full build")
	}
}

func TestPlannedDemand(t *testing.T) {
	cp := &ClassPlan{
		Class:  Class{Demand: 100},
		Shares: []Share{{Fraction: 0.5}, {Fraction: 0.25}},
	}
	if got := cp.PlannedDemand(); math.Abs(got-75) > 1e-12 {
		t.Fatalf("PlannedDemand = %g, want 75", got)
	}
}

func TestDefaultRejectionFactorConservative(t *testing.T) {
	g := topo.MustBuild(topo.CittaStudi, 1)
	app := &vnet.App{
		Name: "x", Kind: vnet.KindChain,
		VNFs:  []vnet.VNF{{ID: 0}, {ID: 1, Size: 10}},
		Links: []vnet.VLink{{From: 0, To: 1, Size: 5}},
	}
	psi := DefaultRejectionFactor(g, app)
	// Must be at least as costly as hosting the app on any single node.
	for _, n := range g.Nodes() {
		if psi < 10*n.Cost {
			t.Fatalf("ψ=%g below the cost of node %q (%g)", psi, n.Name, 10*n.Cost)
		}
	}
}

func TestPlanSharesRespectIngressPin(t *testing.T) {
	g, apps, hist := smallScenario(t, 10, 1.0)
	p, err := BuildFromHistory(g, apps, hist, DefaultOptions(), testRNG(10))
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range p.Classes {
		for _, s := range cp.Shares {
			if s.E.NodeMap[vnet.Root] != cp.Class.Ingress {
				t.Fatalf("class (%d,%d): share embeds θ at %d",
					cp.Class.App, cp.Class.Ingress, s.E.NodeMap[vnet.Root])
			}
			if s.E.App != apps[cp.Class.App] {
				t.Fatal("share embedding references wrong app")
			}
		}
	}
}

func TestUtilizationReport(t *testing.T) {
	g, apps, hist := smallScenario(t, 12, 1.2)
	p, err := BuildFromHistory(g, apps, hist, DefaultOptions(), testRNG(12))
	if err != nil {
		t.Fatal(err)
	}
	rep := p.UtilizationReport(g)
	if len(rep) == 0 {
		t.Fatal("empty utilization report for a non-empty plan")
	}
	for i, eu := range rep {
		if eu.Load <= 0 || eu.Cap <= 0 {
			t.Fatalf("entry %d has non-positive load/cap: %+v", i, eu)
		}
		if eu.Frac > 1+1e-6 {
			t.Fatalf("element %q planned beyond capacity: %+v", eu.Name, eu)
		}
		if i > 0 && rep[i-1].Frac < eu.Frac-1e-12 {
			t.Fatal("report not sorted by descending utilization")
		}
		if eu.Name == "" {
			t.Fatal("element name missing")
		}
	}
}
