package workload

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/stats"
	"github.com/olive-vne/olive/internal/topo"
)

func testRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 99)) }

func smallParams() Params {
	p := DefaultParams()
	p.Slots = 200
	return p
}

func TestGenerateMMPPBasicInvariants(t *testing.T) {
	g := topo.MustBuild(topo.CittaStudi, 1)
	tr, err := GenerateMMPP(g, smallParams(), testRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) == 0 {
		t.Fatal("empty trace")
	}
	edgeSet := map[graph.NodeID]bool{}
	for _, v := range g.EdgeNodes() {
		edgeSet[v] = true
	}
	for _, r := range tr.Requests {
		if !edgeSet[r.Ingress] {
			t.Fatalf("request %d originates at non-edge node %d", r.ID, r.Ingress)
		}
		if r.App < 0 || r.App >= 4 {
			t.Fatalf("request %d app index %d outside [0,4)", r.ID, r.App)
		}
	}
}

func TestGenerateMMPPMeanRate(t *testing.T) {
	g := topo.MustBuild(topo.CittaStudi, 2)
	p := smallParams()
	p.Slots = 500
	tr, err := GenerateMMPP(g, p, testRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	perSlot := float64(len(tr.Requests)) / float64(p.Slots)
	want := p.LambdaPerNode * float64(len(g.EdgeNodes()))
	if math.Abs(perSlot-want)/want > 0.1 {
		t.Fatalf("mean arrivals/slot = %g, want ≈%g (±10%%)", perSlot, want)
	}
}

func TestGenerateMMPPZipfSkew(t *testing.T) {
	g := topo.MustBuild(topo.Iris, 3)
	p := smallParams()
	tr, err := GenerateMMPP(g, p, testRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[graph.NodeID]int{}
	for _, r := range tr.Requests {
		counts[r.Ingress]++
	}
	var max, min int
	min = 1 << 30
	for _, v := range g.EdgeNodes() {
		c := counts[v]
		if c > max {
			max = c
		}
		if c < min {
			min = c
		}
	}
	// Zipf(1) over 30 edge nodes: top/bottom rate ratio is 30; with
	// sampling noise demand at least 5×.
	if min == 0 {
		min = 1
	}
	if float64(max)/float64(min) < 5 {
		t.Errorf("popularity skew max/min = %d/%d; expected strong Zipf skew", max, min)
	}
}

func TestGenerateMMPPBurstiness(t *testing.T) {
	g := topo.MustBuild(topo.CittaStudi, 4)
	p := smallParams()
	p.Slots = 400

	burst, err := GenerateMMPP(g, p, testRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	p2 := p
	p2.MMPP = MMPPParams{} // plain Poisson
	flat, err := GenerateMMPP(g, p2, testRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	cv := func(tr *Trace) float64 {
		perSlot := make([]float64, tr.Slots)
		for _, r := range tr.Requests {
			perSlot[r.Arrive]++
		}
		return stats.StdDev(perSlot) / stats.Mean(perSlot)
	}
	if cv(burst) <= cv(flat) {
		t.Errorf("MMPP CV %g not larger than Poisson CV %g", cv(burst), cv(flat))
	}
}

func TestDemandScalesWithUtilization(t *testing.T) {
	g := topo.MustBuild(topo.CittaStudi, 5)
	for _, util := range []float64{0.6, 1.0, 1.4} {
		p := smallParams().WithUtilization(util)
		tr, err := GenerateMMPP(g, p, testRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, r := range tr.Requests {
			sum += r.Demand
		}
		mean := sum / float64(len(tr.Requests))
		if math.Abs(mean-10*util) > 0.5 {
			t.Errorf("util %g: mean demand %g, want ≈%g", util, mean, 10*util)
		}
	}
}

func TestDurationMean(t *testing.T) {
	g := topo.MustBuild(topo.CittaStudi, 6)
	p := smallParams()
	tr, err := GenerateMMPP(g, p, testRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range tr.Requests {
		sum += float64(r.Duration)
	}
	mean := sum / float64(len(tr.Requests))
	// Ceil of Exp(10) has mean ≈ 10.5.
	if mean < 9 || mean < 1 || mean > 12 {
		t.Errorf("mean duration %g, want ≈10", mean)
	}
}

func TestSplit(t *testing.T) {
	g := topo.MustBuild(topo.CittaStudi, 7)
	p := smallParams()
	tr, err := GenerateMMPP(g, p, testRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	hist, online, err := tr.Split(150)
	if err != nil {
		t.Fatal(err)
	}
	if hist.Slots != 150 || online.Slots != 50 {
		t.Fatalf("split slots = %d/%d, want 150/50", hist.Slots, online.Slots)
	}
	if len(hist.Requests)+len(online.Requests) != len(tr.Requests) {
		t.Fatal("split lost requests")
	}
	if err := online.Validate(); err != nil {
		t.Fatalf("online part invalid after re-basing: %v", err)
	}
	for _, r := range hist.Requests {
		if r.Arrive >= 150 {
			t.Fatalf("history contains request arriving at %d", r.Arrive)
		}
	}
}

func TestSplitErrors(t *testing.T) {
	tr := &Trace{Slots: 10}
	for _, cut := range []int{0, 10, -5, 99} {
		if _, _, err := tr.Split(cut); err == nil {
			t.Errorf("Split(%d) did not error", cut)
		}
	}
}

func TestPerSlot(t *testing.T) {
	tr := &Trace{Slots: 3, Requests: []Request{
		{ID: 0, Arrive: 0, Demand: 1, Duration: 1},
		{ID: 1, Arrive: 2, Demand: 1, Duration: 1},
		{ID: 2, Arrive: 2, Demand: 1, Duration: 1},
	}}
	slots := tr.PerSlot()
	if len(slots[0]) != 1 || len(slots[1]) != 0 || len(slots[2]) != 2 {
		t.Fatalf("PerSlot counts = %d/%d/%d, want 1/0/2", len(slots[0]), len(slots[1]), len(slots[2]))
	}
}

// perSlotReference is PerSlot as a copy: every in-range request appended
// to its slot's own fresh slice, in trace order.
func perSlotReference(t *Trace) [][]Request {
	slots := make([][]Request, t.Slots)
	for _, r := range t.Requests {
		if r.Arrive >= 0 && r.Arrive < t.Slots {
			slots[r.Arrive] = append(slots[r.Arrive], r)
		}
	}
	return slots
}

// TestPerSlotMatchesCopy holds PerSlot to a copying reference on sorted
// traces (which it groups as views of the trace), unsorted ones (which it
// copies) and traces with arrivals before slot 0 or past the last slot, and
// checks that appending to one slot's group leaves the next one as it was.
func TestPerSlotMatchesCopy(t *testing.T) {
	g := topo.MustBuild(topo.CittaStudi, 1)
	gen, err := GenerateMMPP(g, smallParams(), testRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	arrivals := func(slots int, arr ...int) *Trace {
		tr := &Trace{Slots: slots}
		for i, a := range arr {
			tr.Requests = append(tr.Requests, Request{ID: i, Arrive: a, Demand: float64(i + 1), Duration: 1})
		}
		return tr
	}
	reversed := &Trace{Slots: gen.Slots, Requests: slices.Clone(gen.Requests)}
	slices.Reverse(reversed.Requests)
	for _, c := range []struct {
		name string
		tr   *Trace
		view bool
	}{
		{"generated", gen, true},
		{"sorted", arrivals(4, 0, 0, 1, 3, 3, 3), true},
		{"out of range, sorted", arrivals(3, -2, -1, 0, 2, 2, 3, 7), true},
		{"only out of range", arrivals(2, -1, 5), true},
		{"empty", arrivals(3), true},
		{"unsorted", arrivals(4, 1, 0, 3, 1, 2), false},
		{"out of range, unsorted", arrivals(3, 2, -1, 0, 5, 1, -3), false},
		{"reversed", reversed, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := slices.Clone(c.tr.Requests)
			got, want := c.tr.PerSlot(), perSlotReference(c.tr)
			if len(got) != len(want) {
				t.Fatalf("%d slots, want %d", len(got), len(want))
			}
			for s := range want {
				if !slices.Equal(got[s], want[s]) {
					t.Fatalf("slot %d = %v, want %v", s, got[s], want[s])
				}
				if len(got[s]) > 0 && (&got[s][0] == &c.tr.Requests[got[s][0].ID]) != c.view {
					t.Fatalf("slot %d aliases the trace: %v, want %v", s, !c.view, c.view)
				}
			}
			for s := 0; s+1 < len(got); s++ {
				next := slices.Clone(got[s+1])
				got[s] = append(got[s], Request{ID: -1, Arrive: s})
				if !slices.Equal(got[s+1], next) {
					t.Fatalf("appending to slot %d changed slot %d", s, s+1)
				}
			}
			if !slices.Equal(c.tr.Requests, before) {
				t.Fatal("appending to the groups changed the trace")
			}
		})
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	mk := func(mutate func(*Trace)) *Trace {
		tr := &Trace{Slots: 10, Requests: []Request{
			{ID: 0, Arrive: 1, Demand: 5, Duration: 2},
			{ID: 1, Arrive: 3, Demand: 5, Duration: 2},
		}}
		mutate(tr)
		return tr
	}
	tests := []struct {
		name   string
		mutate func(*Trace)
	}{
		{"non-dense IDs", func(tr *Trace) { tr.Requests[1].ID = 7 }},
		{"arrival out of range", func(tr *Trace) { tr.Requests[0].Arrive = 99 }},
		{"zero duration", func(tr *Trace) { tr.Requests[0].Duration = 0 }},
		{"zero demand", func(tr *Trace) { tr.Requests[0].Demand = 0 }},
		{"unsorted", func(tr *Trace) { tr.Requests[0].Arrive = 9 }},
		{"no slots", func(tr *Trace) { tr.Slots = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := mk(tt.mutate).Validate(); err == nil {
				t.Fatal("Validate accepted corrupted trace")
			}
		})
	}
}

func TestGenerateCAIDA(t *testing.T) {
	g := topo.MustBuild(topo.Iris, 8)
	p := smallParams()
	tr, err := GenerateCAIDA(g, p, DefaultCAIDAParams(), testRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	perSlot := float64(len(tr.Requests)) / float64(p.Slots)
	want := p.LambdaPerNode * float64(len(g.EdgeNodes()))
	if math.Abs(perSlot-want)/want > 0.15 {
		t.Errorf("CAIDA mean arrivals/slot = %g, want ≈%g", perSlot, want)
	}
}

func TestGenerateCAIDAHeavyTailSpatialSkew(t *testing.T) {
	g := topo.MustBuild(topo.Iris, 9)
	p := smallParams()
	tr, err := GenerateCAIDA(g, p, DefaultCAIDAParams(), testRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[graph.NodeID]float64{}
	for _, r := range tr.Requests {
		counts[r.Ingress]++
	}
	var xs []float64
	for _, v := range g.EdgeNodes() {
		xs = append(xs, counts[v])
	}
	if j := stats.JainIndex(xs); j > 0.99 {
		t.Errorf("CAIDA trace spatially uniform (Jain %g); expected skew", j)
	}
}

func TestGenerateCAIDAParamErrors(t *testing.T) {
	g := topo.MustBuild(topo.CittaStudi, 1)
	p := smallParams()
	if _, err := GenerateCAIDA(g, p, CAIDAParams{Sources: 0, ParetoAlpha: 1.3}, testRNG(1)); err == nil {
		t.Error("Sources=0 did not error")
	}
	if _, err := GenerateCAIDA(g, p, CAIDAParams{Sources: 10, ParetoAlpha: 1.0}, testRNG(1)); err == nil {
		t.Error("ParetoAlpha=1 did not error")
	}
}

func TestGenerateParamValidation(t *testing.T) {
	g := topo.MustBuild(topo.CittaStudi, 1)
	bad := []Params{
		{},
		{Slots: 10},
		{Slots: 10, LambdaPerNode: 1},
		{Slots: 10, LambdaPerNode: 1, DemandMean: 1},
		{Slots: 10, LambdaPerNode: 1, DemandMean: 1, DurationMean: 1},
	}
	for i, p := range bad {
		if _, err := GenerateMMPP(g, p, testRNG(1)); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestShuffleIngress(t *testing.T) {
	g := topo.MustBuild(topo.Iris, 10)
	p := smallParams()
	tr, err := GenerateMMPP(g, p, testRNG(10))
	if err != nil {
		t.Fatal(err)
	}
	shuffled := ShuffleIngress(tr, g, testRNG(11))
	if len(shuffled.Requests) != len(tr.Requests) {
		t.Fatal("ShuffleIngress changed request count")
	}
	moved := 0
	edgeSet := map[graph.NodeID]bool{}
	for _, v := range g.EdgeNodes() {
		edgeSet[v] = true
	}
	for i := range shuffled.Requests {
		if !edgeSet[shuffled.Requests[i].Ingress] {
			t.Fatal("shuffled ingress is not an edge node")
		}
		if shuffled.Requests[i].Ingress != tr.Requests[i].Ingress {
			moved++
		}
		if shuffled.Requests[i].Demand != tr.Requests[i].Demand {
			t.Fatal("ShuffleIngress altered demand")
		}
	}
	if moved == 0 {
		t.Error("ShuffleIngress moved no requests")
	}
	// Original untouched.
	if &shuffled.Requests[0] == &tr.Requests[0] {
		t.Error("ShuffleIngress aliases the original slice")
	}
}

// TestGenerateCAIDASameSeedDeterminism: CAIDA traces are a pure function
// of (substrate, params, seed) — the planner and the runner's positional
// seeding both rely on it.
func TestGenerateCAIDASameSeedDeterminism(t *testing.T) {
	g := topo.MustBuild(topo.Iris, 8)
	p := smallParams()
	a, err := GenerateCAIDA(g, p, DefaultCAIDAParams(), testRNG(12))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCAIDA(g, p, DefaultCAIDAParams(), testRNG(12))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same-seed CAIDA traces differ")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("CAIDA trace invalid: %v", err)
	}
	c, err := GenerateCAIDA(g, p, DefaultCAIDAParams(), testRNG(13))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical CAIDA traces")
	}
}

// TestShuffleIngressDeterministicAndConservative: the Fig. 14 stressor
// must be reproducible from its seed, keep the shuffled trace valid, and
// conserve demand exactly — it moves requests in space, never in volume,
// time or shape.
func TestShuffleIngressDeterministicAndConservative(t *testing.T) {
	g := topo.MustBuild(topo.Iris, 10)
	p := smallParams()
	tr, err := GenerateMMPP(g, p, testRNG(14))
	if err != nil {
		t.Fatal(err)
	}
	a := ShuffleIngress(tr, g, testRNG(15))
	b := ShuffleIngress(tr, g, testRNG(15))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same-seed shuffles differ")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("shuffled trace invalid: %v", err)
	}
	var before, after float64
	for i := range tr.Requests {
		before += tr.Requests[i].Demand
		after += a.Requests[i].Demand
	}
	if after != before {
		t.Fatalf("shuffle changed total demand: %g → %g", before, after)
	}
	for i := range a.Requests {
		got, want := a.Requests[i], tr.Requests[i]
		want.Ingress = got.Ingress // the only field allowed to change
		if got != want {
			t.Fatalf("request %d changed beyond ingress: %+v vs %+v", i, got, tr.Requests[i])
		}
	}
}

func TestPoissonMoments(t *testing.T) {
	rng := testRNG(12)
	for _, mean := range []float64{0.5, 3, 12, 80} {
		xs := make([]float64, 20000)
		for i := range xs {
			xs[i] = float64(poisson(mean, rng))
		}
		if m := stats.Mean(xs); math.Abs(m-mean)/mean > 0.05 {
			t.Errorf("poisson(%g) sample mean %g", mean, m)
		}
		if v := stats.Variance(xs); math.Abs(v-mean)/mean > 0.15 {
			t.Errorf("poisson(%g) sample variance %g, want ≈%g", mean, v, mean)
		}
	}
	if poisson(0, rng) != 0 || poisson(-1, rng) != 0 {
		t.Error("poisson of non-positive mean should be 0")
	}
}

func TestZipfWeights(t *testing.T) {
	w := zipfWeights(4, 1)
	var sum float64
	for _, x := range w {
		sum += x
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("weights sum %g, want 1", sum)
	}
	for i := 1; i < len(w); i++ {
		if w[i] > w[i-1] {
			t.Fatal("weights not decreasing")
		}
	}
	if math.Abs(w[0]/w[3]-4) > 1e-9 {
		t.Fatalf("rank-1/rank-4 ratio %g, want 4 (α=1)", w[0]/w[3])
	}
}

func TestDeparts(t *testing.T) {
	r := Request{Arrive: 5, Duration: 3}
	if r.Departs() != 8 {
		t.Fatalf("Departs = %d, want 8", r.Departs())
	}
}
