package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func validGridSpec() *Spec {
	return &Spec{
		Name: "test-grid",
		Axes: []Axis{
			{Name: "topology", Values: []AxisValue{
				{Label: "iris", Patch: Patch(`{"topology":"iris"}`)},
				{Label: "cittastudi", Patch: Patch(`{"topology":"cittastudi"}`)},
			}},
			{Name: "trace", Values: []AxisValue{
				{Label: "mmpp", Patch: Patch(`{"trace":"mmpp"}`)},
				{Label: "caida", Patch: Patch(`{"trace":"caida"}`)},
			}},
		},
		Reports: []Report{{
			Title:     "t",
			RowHeader: "cell",
			Columns:   []Column{{Header: "OLIVE", Metric: MetricRejection, Algo: AlgoOLIVE}},
		}},
	}
}

func TestValidateRejectsMalformedSpecs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"empty name", func(s *Spec) { s.Name = "" }, "invalid name"},
		{"bad name chars", func(s *Spec) { s.Name = "a b" }, "invalid name"},
		{"no output", func(s *Spec) { s.Reports = nil }, "exactly one of"},
		{"two outputs", func(s *Spec) { s.Static = "settings" }, "exactly one of"},
		{"axis without values", func(s *Spec) { s.Axes[0].Values = nil }, "needs either scaleUtils or explicit values"},
		{"axis with both", func(s *Spec) { s.Axes[0].ScaleUtils = true }, "needs either scaleUtils or explicit values"},
		{"no columns", func(s *Spec) { s.Reports[0].Columns = nil }, "no columns"},
		{"unknown metric", func(s *Spec) { s.Reports[0].Columns[0].Metric = "latency" }, "unknown metric"},
		{"unknown format", func(s *Spec) { s.Reports[0].Columns[0].Format = "pct" }, "unknown format"},
		{"base not an object", func(s *Spec) { s.Base = Patch(`[1]`) }, "not a JSON object"},
		{"axis patch not JSON", func(s *Spec) { s.Axes[1].Values[0].Patch = Patch(`{"trace":`) }, "not a JSON object"},
		{
			"mixed algo modes",
			func(s *Spec) {
				s.Reports[0].Columns = append(s.Reports[0].Columns, Column{Header: "x", Metric: MetricCost})
			},
			"mixes fixed-algorithm and per-algorithm",
		},
		{
			"detail with axes",
			func(s *Spec) {
				s.Reports = nil
				s.Detail = &Detail{View: "slot-demand", Title: "t"}
			},
			"take no axes",
		},
	}
	for _, tc := range cases {
		sp := validGridSpec()
		tc.mut(sp)
		err := sp.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	if err := validGridSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestExpandCrossProductOrder(t *testing.T) {
	points, err := validGridSpec().Expand(nil)
	if err != nil {
		t.Fatal(err)
	}
	wantLabels := []string{
		"iris mmpp", "iris caida",
		"cittastudi mmpp", "cittastudi caida",
	}
	if len(points) != len(wantLabels) {
		t.Fatalf("expanded %d points, want %d", len(points), len(wantLabels))
	}
	for i, want := range wantLabels {
		if got := points[i].RowLabel(); got != want {
			t.Errorf("point %d label %q, want %q (first axis must vary slowest)", i, got, want)
		}
	}
	// A point's patches are the base, then each axis value in axis order.
	if got := points[3].Patches; len(got) != 3 || len(got[0]) != 0 ||
		string(got[1]) != `{"topology":"cittastudi"}` || string(got[2]) != `{"trace":"caida"}` {
		t.Errorf("point 3 patches %q", got)
	}
}

func TestExpandScaleUtils(t *testing.T) {
	sp := validGridSpec()
	sp.Axes = []Axis{{Name: "util", ScaleUtils: true}}
	points, err := sp.Expand([]float64{0.6, 1.4})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("expanded %d points, want 2", len(points))
	}
	if points[0].RowLabel() != "60%" || points[1].RowLabel() != "140%" {
		t.Errorf("utilization labels %q, %q", points[0].RowLabel(), points[1].RowLabel())
	}
	if got := string(points[1].Patches[1]); got != `{"utilization":1.4}` {
		t.Errorf("utilization patch = %s", got)
	}
	if _, err := sp.Expand(nil); err == nil {
		t.Error("scaleUtils axis with no utilizations accepted")
	}
	if _, err := sp.Expand([]float64{math.NaN()}); err == nil {
		t.Error("NaN utilization accepted")
	}
}

func TestExpandBaseOnlySpec(t *testing.T) {
	sp := validGridSpec()
	sp.Axes = nil
	sp.Base = Patch(`{"topology":"5gen"}`)
	points, err := sp.Expand(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 || len(points[0].Patches) != 1 ||
		string(points[0].Patches[0]) != `{"topology":"5gen"}` || points[0].RowLabel() != "" {
		t.Fatalf("base-only expansion wrong: %+v", points)
	}
}

func TestJSONRoundTripPreservesHash(t *testing.T) {
	sp := validGridSpec()
	buf, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Hash() != sp.Hash() {
		t.Error("JSON round trip changed the spec hash")
	}
	if loaded.Tag() != "test-grid@"+sp.Hash() {
		t.Errorf("tag %q", loaded.Tag())
	}
}

func TestLoadRejectsUnknownFieldsAndInvalidSpecs(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"name":"x","reports":[],"axis":[]}`)); err == nil {
		t.Error("unknown JSON field accepted")
	}
	if _, err := Load(strings.NewReader(`{"name":"x"}`)); err == nil {
		t.Error("spec without output accepted")
	}
	for _, patch := range []string{`[]`, `1`, `"topology"`, `true`} {
		_, err := Load(strings.NewReader(`{"name":"x","static":"settings","base":` + patch + `}`))
		if err == nil || !strings.Contains(err.Error(), "not a JSON object") {
			t.Errorf("patch %s: got %v, want a non-object error", patch, err)
		}
	}
}

// TestPatchIsTheJSONWritten: a patch keeps its keys in the order and
// spelling written, and null or a missing patch reads and writes as {}.
func TestPatchIsTheJSONWritten(t *testing.T) {
	sp, err := Load(strings.NewReader(`{"name":"x","base":null,"axes":[{"name":"a","values":[
		{"label":"l","patch":{"trace": "caida", "utilization":1.40}},{"label":"m"}]}],
		"reports":[{"title":"t","rowHeader":"r","columns":[{"header":"h","metric":"cost"}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"base":{}`, `"patch":{"trace":"caida","utilization":1.40}`, `"patch":{}`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("marshalled spec %s lacks %s", b, want)
		}
	}
}

// TestHashIsSensitiveAndStable: any edit to the spec must change the hash
// (artifact invalidation), and a deep copy must not.
func TestHashIsSensitiveAndStable(t *testing.T) {
	base := validGridSpec()
	if base.Clone().Hash() != base.Hash() {
		t.Error("clone changed the hash")
	}
	muts := []func(*Spec){
		func(s *Spec) { s.Axes[0].Values[0].Patch = Patch(`{"topology":"5gen"}`) },
		func(s *Spec) { s.Axes[0].Values = s.Axes[0].Values[:1] },
		func(s *Spec) { s.Reports[0].Columns[0].Metric = MetricCost },
		func(s *Spec) { s.Base = Patch(`{"utilization":1.2}`) },
		func(s *Spec) { s.MaxReps = 3 },
	}
	for i, mut := range muts {
		sp := validGridSpec()
		mut(sp)
		if sp.Hash() == base.Hash() {
			t.Errorf("mutation %d did not change the hash", i)
		}
	}
}

func TestRegistryLookupReturnsCopies(t *testing.T) {
	sp := MustLookup("fig6+7")
	origHash := sp.Hash()
	sp.Base = Patch(`{"topology":"5gen"}`)
	again := MustLookup("fig6+7")
	if again.Hash() != origHash {
		t.Error("mutating a Lookup result mutated the registry")
	}
	fig8 := MustLookup("fig8")
	origHash = fig8.Hash()
	fig8.Base[len(fig8.Base)-2] = '9' // {"utilization":1.4} → 1.9, in place
	if MustLookup("fig8").Hash() != origHash {
		t.Error("a Lookup result shares its patch bytes with the registry")
	}
	if _, ok := Lookup("no-such-scenario"); ok {
		t.Error("unknown name resolved")
	}
}

func TestRegisterRejectsDuplicatesAndInvalid(t *testing.T) {
	sp := validGridSpec()
	sp.Name = "test-register-once"
	if err := Register(sp); err != nil {
		t.Fatal(err)
	}
	if err := Register(sp); err == nil {
		t.Error("duplicate registration accepted")
	}
	bad := validGridSpec()
	bad.Name = ""
	if err := Register(bad); err == nil {
		t.Error("invalid spec registered")
	}
}

// TestBuiltinsCoverThePaper: every figure/table of the paper resolves in
// the registry, validates, and (for grid specs) expands deterministically.
func TestBuiltinsCoverThePaper(t *testing.T) {
	want := []string{
		"table2", "table3", "fig6+7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16a", "fig16",
	}
	for _, name := range want {
		sp, ok := Lookup(name)
		if !ok {
			t.Errorf("builtin %q not registered", name)
			continue
		}
		if sp.Description == "" {
			t.Errorf("builtin %q lacks a description", name)
		}
		if sp.Static != "" || sp.Detail != nil {
			continue
		}
		a, err := sp.Expand([]float64{0.6, 1.0, 1.4})
		if err != nil {
			t.Errorf("builtin %q does not expand: %v", name, err)
			continue
		}
		b, _ := sp.Expand([]float64{0.6, 1.0, 1.4})
		if len(a) != len(b) {
			t.Errorf("builtin %q expansion not deterministic", name)
		}
	}
}

// TestFig13ReferenceRowShape pins the per-algorithm row convention the
// executor relies on: the QUICKG/SLOTOFF reference cell has an empty
// label, so its rows are labeled by algorithm name alone.
func TestFig13ReferenceRowShape(t *testing.T) {
	sp := MustLookup("fig13")
	points, err := sp.Expand(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("fig13 expands to %d points, want 4", len(points))
	}
	last := points[len(points)-1]
	if last.RowLabel() != "" {
		t.Errorf("fig13 reference cell label %q, want empty", last.RowLabel())
	}
	if got := string(last.Patches[len(last.Patches)-1]); got != `{"algorithms":["QUICKG","SLOTOFF"]}` {
		t.Errorf("fig13 reference patch %s", got)
	}
	if !sp.Reports[0].PerAlgoRows() {
		t.Error("fig13 report not in per-algorithm row mode")
	}
}
