package plan

import (
	"math"
	"testing"

	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
	"github.com/olive-vne/olive/internal/workload"
)

func TestBuildWindowedBasics(t *testing.T) {
	g := topo.MustBuild(topo.CittaStudi, 1)
	rng := testRNG(20)
	apps := vnet.DefaultMix(vnet.DefaultParams(), rng)
	wp := workload.DefaultParams().WithUtilization(1.0)
	wp.Slots = 200
	wp.LambdaPerNode = 3
	cp := workload.DefaultCAIDAParams()
	cp.DiurnalPeriod = 100
	cp.DiurnalAmplitude = 0.6
	hist, err := workload.GenerateCAIDA(g, wp, cp, rng)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.BootstrapB = 20
	w, err := BuildWindowed(g, apps, hist, 100, 4, opts, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Plans) != 4 {
		t.Fatalf("%d windows, want 4", len(w.Plans))
	}
	for i, p := range w.Plans {
		if p == nil {
			t.Fatalf("window %d has nil plan", i)
		}
		if err := p.Validate(g); err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
	}
	// At() maps cycle positions to windows, wrapping across periods.
	for _, tc := range []struct {
		slot, window int
	}{
		{0, 0}, {24, 0}, {25, 1}, {99, 3}, {100, 0}, {150, 2}, {350, 2},
	} {
		if got := w.WindowOf(tc.slot); got != tc.window {
			t.Errorf("WindowOf(%d) = %d, want %d", tc.slot, got, tc.window)
		}
		if w.At(tc.slot) != w.Plans[tc.window] {
			t.Errorf("At(%d) returned wrong plan", tc.slot)
		}
	}
}

// The diurnal modulation means windows at the rate peak should carry more
// expected demand than windows at the trough.
func TestWindowedPlansTrackDiurnalCycle(t *testing.T) {
	g := topo.MustBuild(topo.CittaStudi, 2)
	rng := testRNG(21)
	apps := vnet.DefaultMix(vnet.DefaultParams(), rng)
	wp := workload.DefaultParams().WithUtilization(1.0)
	wp.Slots = 400
	wp.LambdaPerNode = 3
	cp := workload.DefaultCAIDAParams()
	cp.DiurnalPeriod = 200
	cp.DiurnalAmplitude = 0.8
	hist, err := workload.GenerateCAIDA(g, wp, cp, rng)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.BootstrapB = 20
	w, err := BuildWindowed(g, apps, hist, 200, 4, opts, rng)
	if err != nil {
		t.Fatal(err)
	}
	demand := func(p *Plan) float64 {
		var s float64
		for _, cp := range p.Classes {
			s += cp.Class.Demand
		}
		return s
	}
	// sin peaks in window 1 (slots 50–99 of the 200-slot cycle) and
	// troughs in window 3.
	peak, trough := demand(w.Plans[1]), demand(w.Plans[3])
	if peak <= trough {
		t.Fatalf("peak-window demand %.0f not above trough-window %.0f", peak, trough)
	}
	if ratio := peak / trough; ratio < 1.3 {
		t.Errorf("peak/trough demand ratio %.2f; diurnal signal too weak", ratio)
	}
}

func TestBuildWindowedValidation(t *testing.T) {
	g := topo.MustBuild(topo.CittaStudi, 3)
	rng := testRNG(22)
	apps := vnet.DefaultMix(vnet.DefaultParams(), rng)
	hist := &workload.Trace{Slots: 50}
	opts := DefaultOptions()

	if _, err := BuildWindowed(g, apps, nil, 10, 2, opts, rng); err == nil {
		t.Error("nil history accepted")
	}
	if _, err := BuildWindowed(g, apps, hist, 0, 2, opts, rng); err == nil {
		t.Error("period 0 accepted")
	}
	if _, err := BuildWindowed(g, apps, hist, 99, 2, opts, rng); err == nil {
		t.Error("period > slots accepted")
	}
	if _, err := BuildWindowed(g, apps, hist, 10, 0, opts, rng); err == nil {
		t.Error("0 windows accepted")
	}
	if _, err := BuildWindowed(g, apps, hist, 10, 11, opts, rng); err == nil {
		t.Error("more windows than period accepted")
	}
	for _, alpha := range []float64{0, 1.2} {
		bad := opts
		bad.Alpha = alpha
		if _, err := BuildWindowed(g, apps, hist, 10, 2, bad, rng); err == nil {
			t.Errorf("α=%g accepted", alpha)
		}
	}
}

func TestWindowedSingleWindowMatchesFlatAggregation(t *testing.T) {
	g := topo.MustBuild(topo.CittaStudi, 4)
	rng := testRNG(23)
	apps := vnet.DefaultMix(vnet.DefaultParams(), rng)
	wp := workload.DefaultParams().WithUtilization(1.0)
	wp.Slots = 150
	wp.LambdaPerNode = 3
	hist, err := workload.GenerateMMPP(g, wp, rng)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.BootstrapB = 40

	w, err := BuildWindowed(g, apps, hist, hist.Slots, 1, opts, testRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Aggregate(hist, len(apps), opts.Alpha, opts.BootstrapB, testRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Plans[0].Classes) != len(flat) {
		t.Fatalf("class counts differ: windowed %d vs flat %d", len(w.Plans[0].Classes), len(flat))
	}
	for i := range flat {
		got := w.Plans[0].Classes[i].Class
		if got.App != flat[i].App || got.Ingress != flat[i].Ingress {
			t.Fatalf("class %d identity differs", i)
		}
		if math.Float64bits(got.Demand) != math.Float64bits(flat[i].Demand) {
			t.Fatalf("class %d demand %g vs flat %g", i, got.Demand, flat[i].Demand)
		}
	}
}
