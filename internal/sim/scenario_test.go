package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/olive-vne/olive/internal/core"
	"github.com/olive-vne/olive/internal/scenario"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
)

// microScale is a tiny but complete experiment scale for scenario tests.
func microScale() Scale {
	return Scale{
		Reps: 1, HistSlots: 100, OnlineSlots: 40, LambdaPerNode: 2,
		MeasureFrom: 5, MeasureTo: 35, Utils: []float64{1.0}, Seed: 2,
	}
}

func TestApplyPatchTranslatesAndValidates(t *testing.T) {
	s := microScale()
	cfg, err := s.scenarioConfig(scenario.Patch(`{"topology":"cittastudi","utilization":1.2,
		"trace":"caida","appKind":"tree","algorithms":["OLIVE","FULLG"],"quantiles":7,
		"shufflePlanIngress":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topology != topo.CittaStudi || cfg.Utilization != 1.2 ||
		cfg.Trace != TraceCAIDA || cfg.AppKind != vnet.KindTree ||
		cfg.PlanOptions.Quantiles != 7 || !cfg.ShufflePlanIngress {
		t.Errorf("patch not applied: %+v", cfg)
	}
	if !reflect.DeepEqual(cfg.Algorithms, []core.Algorithm{core.AlgoOLIVE, core.AlgoFullG}) {
		t.Errorf("algorithms %v", cfg.Algorithms)
	}
	// Scale defaults survive where the patch is silent.
	if cfg.HistSlots != 100 || cfg.OnlineSlots != 40 || cfg.Seed != 2 {
		t.Errorf("scale defaults lost: %+v", cfg)
	}

	// Later patches win key by key; null leaves a key's value alone.
	cfg, err = s.scenarioConfig(scenario.Patch(`{"utilization":0.6,"histSlots":50}`),
		scenario.Patch(`{"utilization":null}`), scenario.Patch(`{"utilization":1.4}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Utilization != 1.4 || cfg.HistSlots != 50 {
		t.Errorf("patches not applied in order: utilization %v, histSlots %d", cfg.Utilization, cfg.HistSlots)
	}

	// Unknown enumerations fail naming the valid options, and an unknown
	// key fails naming the key.
	for _, tc := range []struct {
		patch, want string
	}{
		{`{"topology":"atlantis"}`, `sim: patch {"topology":"atlantis"}: unknown topology "atlantis" (valid: iris, cittastudi, 5gen, 100n150e)`},
		{`{"trace":"pareto"}`, `unknown trace "pareto" (valid: mmpp, caida)`},
		{`{"appKind":"mesh"}`, `unknown application kind "mesh" (valid: chain, tree, accelerator, gpu)`},
		{`{"algorithms":["OLIVE","DIJKSTRA"]}`, `unknown algorithm "DIJKSTRA" (valid: OLIVE, QUICKG, FULLG, SLOTOFF)`},
		{`{"quantile":7}`, `unknown field "quantile"`},
		{`{"seed":7}`, `unknown field "seed"`},
		{`{"appKind":2}`, `appKind`},
	} {
		_, err := s.scenarioConfig(scenario.Patch(tc.patch))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("patch %s: got %v, want error containing %q", tc.patch, err, tc.want)
		}
	}
}

// TestBuiltinsBind: every grid point of every registered spec binds to a
// configuration at smoke scale (detail specs: their base), so a
// misspelled key or value in a built-in fails here, before any run.
func TestBuiltinsBind(t *testing.T) {
	s := SmokeScale()
	for _, name := range scenario.Names() {
		sp := scenario.MustLookup(name)
		if sp.Detail != nil || sp.Static != "" {
			if _, err := s.scenarioConfig(sp.Base); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			continue
		}
		points, err := sp.Expand(s.Utils)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, pt := range points {
			if _, err := s.scenarioConfig(pt.Patches...); err != nil {
				t.Errorf("%s (%s): %v", name, pt.RowLabel(), err)
			}
		}
	}
}

// TestScenarioMatchesHandWrittenSweep locks the executor's rendering to
// the pre-refactor hand-written generator structure: a manual RunSweep
// plus explicit formatting (the code every figure generator used to
// duplicate) must yield byte-identical tables to the registered spec.
func TestScenarioMatchesHandWrittenSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	s := microScale()

	// Hand-written fig9, exactly as experiments.go built it before the
	// scenario layer: one cell per app-kind with four algorithms.
	cases := []struct {
		label string
		kind  vnet.Kind
	}{
		{"Chain", vnet.KindChain},
		{"Tree", vnet.KindTree},
		{"Acc", vnet.KindAccelerator},
		{"Mix", 0},
	}
	sp := scenario.MustLookup("fig9")
	cells := make([]SweepCell, len(cases))
	for i, c := range cases {
		cfg := s.config(topo.Iris, 1.0)
		cfg.AppKind = c.kind
		cfg.Algorithms = []core.Algorithm{core.AlgoOLIVE, core.AlgoQuickG, core.AlgoFullG, core.AlgoSlotOff}
		cells[i] = SweepCell{Config: cfg, Reps: s.Reps, Tag: sp.Tag()}
	}
	results, err := s.sweep(cells)
	if err != nil {
		t.Fatal(err)
	}
	want := &Table{
		Title:  "Fig. 9: rejection rate by application type, Iris @100%",
		Header: []string{"apps", "OLIVE", "QUICKG", "FULLG", "SLOTOFF"},
	}
	for i, c := range cases {
		rr := results[i]
		want.AddRow(c.label,
			fmtCI(rr.Rejection[core.AlgoOLIVE]),
			fmtCI(rr.Rejection[core.AlgoQuickG]),
			fmtCI(rr.Rejection[core.AlgoFullG]),
			fmtCI(rr.Rejection[core.AlgoSlotOff]))
	}

	if got := runRegistered(t, "fig9", s)[0]; !reflect.DeepEqual(got, want) {
		t.Errorf("scenario fig9 diverges from the hand-written sweep:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestScenarioPerAlgoRows locks the ablation row layout (Figs. 10/13):
// single-algorithm cells keep their axis label, the unlabeled reference
// cell emits one row per algorithm named after it.
func TestScenarioPerAlgoRows(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	var labels []string
	for _, r := range runRegistered(t, "fig13", microScale())[0].Rows {
		labels = append(labels, r[0])
	}
	want := []string{
		"OLIVE (plan @60%)", "OLIVE (plan @100%)", "OLIVE (plan @140%)",
		"QUICKG", "SLOTOFF",
	}
	if !reflect.DeepEqual(labels, want) {
		t.Errorf("fig13 row labels %v, want %v", labels, want)
	}
}

// TestCustomScenarioBeyondFigures runs a two-axis grid (topology × trace)
// that no registered scenario expresses.
func TestCustomScenarioBeyondFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	sp := &scenario.Spec{
		Name: "topo-trace-micro",
		Axes: []scenario.Axis{
			{Name: "topology", Values: []scenario.AxisValue{
				{Label: "iris", Patch: scenario.Patch(`{"topology":"iris"}`)},
				{Label: "cittastudi", Patch: scenario.Patch(`{"topology":"cittastudi"}`)},
			}},
			{Name: "trace", Values: []scenario.AxisValue{
				{Label: "mmpp", Patch: scenario.Patch(`{"trace":"mmpp"}`)},
				{Label: "caida", Patch: scenario.Patch(`{"trace":"caida"}`)},
			}},
		},
		Reports: []scenario.Report{{
			Title:     "rejection: topology × trace",
			RowHeader: "cell",
			Columns: []scenario.Column{
				{Header: "OLIVE", Metric: scenario.MetricRejection, Algo: "OLIVE"},
				{Header: "QUICKG", Metric: scenario.MetricRejection, Algo: "QUICKG"},
			},
		}},
	}
	tbls, err := RunScenario(sp, microScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbls) != 1 || len(tbls[0].Rows) != 4 {
		t.Fatalf("grid tables wrong: %+v", tbls)
	}
	wantRows := []string{"iris mmpp", "iris caida", "cittastudi mmpp", "cittastudi caida"}
	for i, r := range tbls[0].Rows {
		if r[0] != wantRows[i] {
			t.Errorf("row %d label %q, want %q", i, r[0], wantRows[i])
		}
		for j, cell := range r[1:] {
			if !strings.Contains(cell, "±") {
				t.Errorf("row %d col %d %q not a CI", i, j, cell)
			}
		}
	}
}

// TestScenarioTagNamespacesArtifacts: two scenarios with identical cell
// configs must not share artifact keys, and editing a spec must change
// its cells' keys (spec-hash invalidation).
func TestScenarioTagNamespacesArtifacts(t *testing.T) {
	cfg := QuickConfig(topo.CittaStudi, 1.0, 1)
	a, err := cellKey(cfg, 0, "expA@0011223344556677")
	if err != nil {
		t.Fatal(err)
	}
	b, err := cellKey(cfg, 0, "expB@8899aabbccddeeff")
	if err != nil {
		t.Fatal(err)
	}
	bare, err := cellKey(cfg, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if a == b || a == bare || b == bare {
		t.Error("scenario tag does not namespace cell keys")
	}
	sp := scenario.MustLookup("fig6+7")
	before := sp.Tag()
	sp.MaxReps = 2
	if sp.Tag() == before {
		t.Error("spec edit did not change the tag")
	}
}

// TestRunScenarioStaticAndDetailErrors: unknown view/static names fail
// with the valid options.
func TestRunScenarioStaticAndDetailErrors(t *testing.T) {
	s := microScale()
	_, err := RunScenario(&scenario.Spec{Name: "x", Static: "nope"}, s)
	if err == nil || !strings.Contains(err.Error(), "topologies, settings") {
		t.Errorf("static error %v", err)
	}
	_, err = RunScenario(&scenario.Spec{Name: "x", Detail: &scenario.Detail{View: "nope"}}, s)
	if err == nil || !strings.Contains(err.Error(), "slot-demand, node-breakdown") {
		t.Errorf("detail error %v", err)
	}
	_, err = RunScenario(&scenario.Spec{Name: "x"}, s)
	if err == nil {
		t.Error("spec without output ran")
	}
}

// TestReqPerSlotColumn checks the derived column against the direct
// computation Fig. 16a used to inline.
func TestReqPerSlotColumn(t *testing.T) {
	s := microScale()
	cfg := s.config(topo.Iris, 1.0)
	cfg.LambdaPerNode = 4
	edge := len(topo.MustBuild(topo.Iris, 1).EdgeNodes())
	got := columnText(scenario.Column{Metric: scenario.MetricReqPerSlot}, cfg, nil, "")
	if want := fmt.Sprintf("%.0f", 4*float64(edge)); got != want {
		t.Errorf("req-per-slot = %q, want %q", got, want)
	}
}
