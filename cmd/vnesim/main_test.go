package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/olive-vne/olive/internal/scenario"
	"github.com/olive-vne/olive/internal/sim"
)

// TestRunTables: -exp prints exactly what sim.RunScenario renders for
// the registered spec.
func TestRunTables(t *testing.T) {
	for _, name := range []string{"table2", "table3"} {
		var got, want bytes.Buffer
		if err := run([]string{"-exp", name}, &got); err != nil {
			t.Fatal(err)
		}
		tbls, err := sim.RunScenario(scenario.MustLookup(name), sim.Scale{})
		if err != nil {
			t.Fatal(err)
		}
		for _, tbl := range tbls {
			tbl.Fprint(&want)
		}
		if got.String() != want.String() {
			t.Errorf("-exp %s printed\n%s\nwant\n%s", name, got.String(), want.String())
		}
	}
}

// TestPerTopologyRule: exactly the registered specs whose report titles
// name {topo} run once per topology.
func TestPerTopologyRule(t *testing.T) {
	var got []string
	for _, name := range scenario.Names() {
		if perTopology(scenario.MustLookup(name)) {
			got = append(got, name)
		}
	}
	if want := []string{"fig16", "fig6+7"}; !slices.Equal(got, want) {
		t.Errorf("per-topology specs %v, want %v", got, want)
	}
}

func TestRunRejectsBadFlagsNamingValidOptions(t *testing.T) {
	emptyWindow := filepath.Join(t.TempDir(), "window.json")
	if err := os.WriteFile(emptyWindow, []byte(strings.Replace(microSpec,
		`"measureFrom": 4, "measureTo": 26`, `"measureFrom": 40, "measureTo": 10`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string // every rejection names the valid options
	}{
		{"unknown experiment", []string{"-exp", "nonsense"}, strings.Join(append([]string{"all"}, scenario.Names()...), ", ")},
		{"retired alias", []string{"-exp", "fig6"}, "fig6+7"},
		{"unknown scale", []string{"-scale", "nonsense"}, "smoke, paper"},
		{"unknown topology", []string{"-exp", "fig6+7", "-topo", "nonsense"}, "iris, cittastudi, 5gen, 100n150e"},
		{"bad utils", []string{"-exp", "fig6+7", "-utils", "abc"}, "0.6,1.0,1.4"},
		{"NaN utils", []string{"-exp", "fig6+7", "-utils", "NaN"}, "0.6,1.0,1.4"},
		{"infinite utils", []string{"-exp", "fig6+7", "-utils", "1.0,Inf"}, "0.6,1.0,1.4"},
		{"negative utils", []string{"-exp", "fig6+7", "-utils", "-1"}, "0.6,1.0,1.4"},
		{"zero utils", []string{"-exp", "fig6+7", "-utils", "0"}, "0.6,1.0,1.4"},
		{"resume without out", []string{"-exp", "fig6+7", "-resume"}, "-out"},
		{"empty measurement window", []string{"-scenario", emptyWindow, "-reps", "1"}, "measurement window"},
	}
	for _, tc := range cases {
		err := run(tc.args, io.Discard)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name the valid options (%q)", tc.name, err, tc.want)
		}
	}
}

func TestList(t *testing.T) {
	if err := run([]string{"-list"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// microSpec is a tiny custom scenario exercising -scenario end to end:
// a 2×1 grid with trace lengths overridden in the spec itself so the
// test stays fast at any -scale.
const microSpec = `{
  "name": "micro-grid",
  "description": "test grid",
  "base": {"histSlots": 80, "onlineSlots": 30, "lambdaPerNode": 2,
           "measureFrom": 4, "measureTo": 26,
           "algorithms": ["OLIVE", "QUICKG"]},
  "axes": [
    {"name": "topology", "values": [
      {"label": "iris", "patch": {"topology": "iris"}},
      {"label": "cittastudi", "patch": {"topology": "cittastudi"}}
    ]}
  ],
  "reports": [{
    "title": "micro",
    "rowHeader": "topology",
    "columns": [{"header": "OLIVE", "metric": "rejection", "algo": "OLIVE"}]
  }]
}`

func TestRunCustomScenarioWithResume(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(microSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(dir, "arts")
	args := []string{"-scenario", spec, "-reps", "1", "-out", store}
	if err := run(args, io.Discard); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(store)
	if err != nil {
		t.Fatal(err)
	}
	artifacts := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".json" {
			artifacts++
		}
	}
	if artifacts != 2 {
		t.Fatalf("custom scenario persisted %d artifacts, want 2", artifacts)
	}
	if err := run(append(args, "-resume"), io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", filepath.Join(dir, "missing.json")}, io.Discard); err == nil {
		t.Error("missing scenario file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name":"x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", bad}, io.Discard); err == nil {
		t.Error("invalid spec accepted")
	}
}

// TestRunPersistsAndResumesArtifacts runs one tiny fig6+7 cell with
// -out, checks the artifact landed, and reruns with -resume against the
// warm store.
func TestRunPersistsAndResumesArtifacts(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-exp", "fig6+7", "-topo", "cittastudi", "-utils", "1.0",
		"-reps", "1", "-workers", "2", "-out", dir,
	}
	if err := run(args, io.Discard); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	artifacts := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".json" {
			artifacts++
		}
	}
	if artifacts == 0 {
		t.Fatal("-out produced no artifacts")
	}
	if err := run(append(args, "-resume"), io.Discard); err != nil {
		t.Fatal(err)
	}
}
