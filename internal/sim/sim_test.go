package sim

import (
	"strings"
	"testing"

	"github.com/olive-vne/olive/internal/core"
	"github.com/olive-vne/olive/internal/scenario"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
)

// tinyConfig is even smaller than QuickConfig for unit tests.
func tinyConfig(util float64, seed uint64) Config {
	c := QuickConfig(topo.CittaStudi, util, seed)
	c.HistSlots = 120
	c.OnlineSlots = 40
	c.LambdaPerNode = 3
	c.MeasureFrom, c.MeasureTo = 5, 35
	return c
}

// sweepOne runs one cell of reps repetitions through the runner.
func sweepOne(t *testing.T, cfg Config, reps int, opts RunnerOptions) *RepeatedResult {
	t.Helper()
	rs, err := RunSweep([]SweepCell{{Config: cfg, Reps: reps}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rs[0]
}

// runRegistered renders a registered scenario at scale s.
func runRegistered(t *testing.T, name string, s Scale) []*Table {
	t.Helper()
	tbls, err := RunScenario(scenario.MustLookup(name), s)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return tbls
}

func TestRunProducesAllAlgorithms(t *testing.T) {
	rr, err := Run(tinyConfig(1.0, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []core.Algorithm{core.AlgoOLIVE, core.AlgoQuickG, core.AlgoSlotOff} {
		ar := rr.Results[algo]
		if ar == nil {
			t.Fatalf("no result for %v", algo)
		}
		if len(ar.Log) == 0 {
			t.Fatalf("%v: empty request log", algo)
		}
		if ar.RejectionRate < 0 || ar.RejectionRate > 1 {
			t.Fatalf("%v: rejection rate %g outside [0,1]", algo, ar.RejectionRate)
		}
		if ar.TotalCost != ar.ResourceCost+ar.RejectionCost {
			t.Fatalf("%v: TotalCost %g ≠ %g + %g", algo, ar.TotalCost, ar.ResourceCost, ar.RejectionCost)
		}
		if ar.ResourceCost <= 0 {
			t.Fatalf("%v: non-positive resource cost", algo)
		}
		if ar.BalanceIndex < 0 || ar.BalanceIndex > 1+1e-9 {
			t.Fatalf("%v: balance index %g outside [0,1]", algo, ar.BalanceIndex)
		}
		if len(ar.PerSlotRequested) != 40 || len(ar.PerSlotAccepted) != 40 {
			t.Fatalf("%v: per-slot series wrong length", algo)
		}
		for i := range ar.PerSlotAccepted {
			if ar.PerSlotAccepted[i] > ar.PerSlotRequested[i]+1e-9 {
				t.Fatalf("%v: slot %d accepted %g > requested %g", algo, i, ar.PerSlotAccepted[i], ar.PerSlotRequested[i])
			}
		}
	}
	if rr.Plan == nil || rr.Plan.Empty() {
		t.Fatal("OLIVE run without a plan")
	}
	if rr.PlanTime <= 0 {
		t.Fatal("plan time not recorded")
	}
}

// TestHeadlineOrdering asserts the paper's central comparison: OLIVE's
// rejection rate is at most QUICKG's (usually strictly lower) at high
// utilization, and close to SLOTOFF.
func TestHeadlineOrdering(t *testing.T) {
	rr := sweepOne(t, tinyConfig(1.4, 3), 3, RunnerOptions{})
	olive := rr.Rejection[core.AlgoOLIVE].Mean
	quick := rr.Rejection[core.AlgoQuickG].Mean
	if olive > quick+0.02 {
		t.Fatalf("OLIVE rejection %.3f worse than QUICKG %.3f", olive, quick)
	}
	if quick == 0 {
		t.Fatal("no rejections at 140% utilization — overload not realized")
	}
}

func TestRunSweepSummaries(t *testing.T) {
	rr := sweepOne(t, tinyConfig(1.0, 5), 2, RunnerOptions{})
	if rr.Reps != 2 {
		t.Fatalf("Reps = %d, want 2", rr.Reps)
	}
	for _, algo := range []core.Algorithm{core.AlgoOLIVE, core.AlgoQuickG, core.AlgoSlotOff} {
		if rr.Rejection[algo].N != 2 {
			t.Fatalf("%v: summary over %d runs, want 2", algo, rr.Rejection[algo].N)
		}
		if rr.Runtime[algo].Mean <= 0 {
			t.Fatalf("%v: runtime not measured", algo)
		}
	}
}

func TestRunSweepValidation(t *testing.T) {
	for _, reps := range []int{0, -1} {
		if _, err := RunSweep([]SweepCell{{Config: tinyConfig(1, 1), Reps: reps}}, RunnerOptions{}); err == nil {
			t.Errorf("reps=%d accepted", reps)
		}
	}
}

// TestRunRejectsBadConfigs: a config Run cannot simulate fails up front.
// An empty measurement window is one: it would count no request and
// report rejection 0 and balance 1, a perfect score.
func TestRunRejectsBadConfigs(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"no history", func(c *Config) { c.HistSlots = 0 }, "HistSlots"},
		{"no online phase", func(c *Config) { c.OnlineSlots = 0 }, "OnlineSlots"},
		{"reversed window", func(c *Config) { c.MeasureFrom, c.MeasureTo = 30, 10 }, "measurement window"},
		{"window past the phase", func(c *Config) { c.MeasureFrom, c.MeasureTo = 60, 100 }, "measurement window"},
		{"window from the phase end", func(c *Config) { c.MeasureFrom, c.MeasureTo = 40, 50 }, "measurement window"},
		{"one-point window", func(c *Config) { c.MeasureFrom, c.MeasureTo = 20, 20 }, "measurement window"},
		{"negative window start", func(c *Config) { c.MeasureFrom = -1 }, "measurement window"},
	} {
		cfg := tinyConfig(1, 1)
		tc.edit(&cfg)
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
	// A window that ends past the online phase is clipped, not refused.
	cfg := tinyConfig(1, 1)
	cfg.Algorithms = []core.Algorithm{core.AlgoQuickG}
	cfg.MeasureFrom, cfg.MeasureTo = 5, 100
	if _, err := Run(cfg); err != nil {
		t.Errorf("window 5..100 over 40 online slots: %v", err)
	}
}

func TestGPUScenarioRun(t *testing.T) {
	cfg := tinyConfig(1.0, 7)
	cfg.GPU = true
	cfg.Algorithms = []core.Algorithm{core.AlgoOLIVE, core.AlgoFullG}
	rr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range rr.Apps {
		if app.Kind != vnet.KindGPU {
			t.Fatalf("GPU scenario produced %v app", app.Kind)
		}
	}
	gpuNodes := 0
	for _, n := range rr.Substrate.Nodes() {
		if n.GPU {
			gpuNodes++
		}
	}
	if gpuNodes == 0 {
		t.Fatal("GPU scenario without GPU datacenters")
	}
	for _, algo := range cfg.Algorithms {
		if rr.Results[algo] == nil {
			t.Fatalf("missing result for %v", algo)
		}
	}
}

func TestPlanUtilizationStressor(t *testing.T) {
	cfg := tinyConfig(1.4, 9)
	cfg.PlanUtilization = 0.6
	cfg.Algorithms = []core.Algorithm{core.AlgoOLIVE}
	rr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Results[core.AlgoOLIVE] == nil {
		t.Fatal("missing OLIVE result")
	}
}

func TestShuffledPlanStillRuns(t *testing.T) {
	cfg := tinyConfig(1.0, 11)
	cfg.ShufflePlanIngress = true
	cfg.Algorithms = []core.Algorithm{core.AlgoOLIVE, core.AlgoQuickG}
	rr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Results[core.AlgoOLIVE].RejectionRate > 1 {
		t.Fatal("nonsense rejection rate")
	}
}

func TestCAIDATraceRun(t *testing.T) {
	cfg := tinyConfig(1.0, 13)
	cfg.Trace = TraceCAIDA
	cfg.Algorithms = []core.Algorithm{core.AlgoOLIVE, core.AlgoQuickG}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMeasurementWindow(t *testing.T) {
	cfg := tinyConfig(1.0, 15)
	cfg.Algorithms = []core.Algorithm{core.AlgoQuickG}
	cfg.MeasureFrom, cfg.MeasureTo = 38, 40 // nearly empty window
	rr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	narrow := rr.Results[core.AlgoQuickG]
	counted := 0
	for _, rec := range narrow.Log {
		if rec.Arrive >= 38 && rec.Arrive < 40 {
			counted++
		}
	}
	if counted == 0 {
		t.Skip("no arrivals in narrow window for this seed")
	}
	// Rejection cost must come only from windowed requests.
	cfg2 := cfg
	cfg2.MeasureFrom, cfg2.MeasureTo = 0, 40
	rr2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if rr2.Results[core.AlgoQuickG].RejectionCost < narrow.RejectionCost {
		t.Fatal("wider window produced lower rejection cost")
	}
}

func TestDemandMeanOverride(t *testing.T) {
	cfg := tinyConfig(1.0, 17)
	cfg.DemandMeanOverride = 2.5
	cfg.Algorithms = []core.Algorithm{core.AlgoQuickG}
	rr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	var n int
	for _, rec := range rr.Results[core.AlgoQuickG].Log {
		sum += rec.Demand
		n++
	}
	if n == 0 {
		t.Fatal("no requests")
	}
	if mean := sum / float64(n); mean > 4 || mean < 1.5 {
		t.Fatalf("mean demand %g, want ≈2.5 (override active)", mean)
	}
}

func TestTablePrinting(t *testing.T) {
	tbl := &Table{Title: "demo", Header: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	var sb strings.Builder
	tbl.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== demo ==", "a", "bb", "333"} {
		if !strings.Contains(out, want) {
			t.Fatalf("printed table missing %q:\n%s", want, out)
		}
	}
}

func TestTable2And3(t *testing.T) {
	if t2 := runRegistered(t, "table2", Scale{})[0]; len(t2.Rows) != 4 {
		t.Fatalf("Table II has %d rows, want 4", len(t2.Rows))
	}
	if t3 := runRegistered(t, "table3", Scale{})[0]; len(t3.Rows) < 8 {
		t.Fatalf("Table III has %d rows, want ≥8", len(t3.Rows))
	}
}

// TestExperimentsSmoke runs every registered scenario at a micro scale
// to confirm end-to-end wiring: one table per report (detail and static
// scenarios render one), none of them empty.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke experiments are slow")
	}
	s := Scale{
		Reps: 1, HistSlots: 100, OnlineSlots: 40, LambdaPerNode: 2,
		MeasureFrom: 5, MeasureTo: 35, Utils: []float64{1.0}, Seed: 2,
	}
	for _, name := range scenario.Names() {
		tbls := runRegistered(t, name, s)
		if want := max(len(scenario.MustLookup(name).Reports), 1); len(tbls) != want {
			t.Errorf("%s: %d tables, want %d", name, len(tbls), want)
		}
		for _, tbl := range tbls {
			if len(tbl.Rows) == 0 {
				t.Errorf("%s: %q has no rows", name, tbl.Title)
			}
		}
	}
}

// TestWindowedPlanRun exercises the time-varying plan extension end to
// end: a diurnal CAIDA trace with per-window plans.
func TestWindowedPlanRun(t *testing.T) {
	cfg := tinyConfig(1.2, 19)
	cfg.Trace = TraceCAIDA
	cfg.DiurnalPeriod = 80
	cfg.PlanWindows = 4
	cfg.Algorithms = []core.Algorithm{core.AlgoOLIVE}
	rr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Windowed == nil || len(rr.Windowed.Plans) != 4 {
		t.Fatal("windowed plan missing")
	}
	if rr.Plan == nil {
		t.Fatal("initial plan not set from window")
	}
	ar := rr.Results[core.AlgoOLIVE]
	if ar == nil || len(ar.Log) == 0 {
		t.Fatal("no OLIVE result")
	}
	if ar.RejectionRate < 0 || ar.RejectionRate > 1 {
		t.Fatalf("rejection rate %g", ar.RejectionRate)
	}
}
