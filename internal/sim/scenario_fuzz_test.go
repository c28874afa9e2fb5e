package sim

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"github.com/olive-vne/olive/internal/scenario"
)

// FuzzScenarioSpec feeds arbitrary bytes through the scenario front door
// as vnesim -scenario does — Load, Expand at smoke scale, then binding
// every grid point (a detail or static spec: its base) — without running
// a simulation. None of it may panic, and a spec that loads must keep its
// hash through json.Marshal and Load again, since the hash keys its
// artifacts.
func FuzzScenarioSpec(f *testing.F) {
	grid, err := os.ReadFile("../../examples/customscenario/grid.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(grid)
	for _, name := range scenario.Names() {
		b, err := json.Marshal(scenario.MustLookup(name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	const report = `"reports":[{"title":"t","rowHeader":"r","columns":[{"header":"h","metric":"cost"}]}]`
	f.Add([]byte(`{"name":"null-base","base":null,` + report + `}`))
	f.Add([]byte(`{"name":"array-base","base":[1],` + report + `}`))
	f.Add([]byte(`{"name":"dup","base":{"utilization":0.6,"utilization":1.40},` + report + `}`))

	s := SmokeScale()
	f.Fuzz(func(t *testing.T, b []byte) {
		sp, err := scenario.Load(bytes.NewReader(b))
		if err != nil {
			return
		}
		if sp.Detail != nil || sp.Static != "" {
			_, _ = s.scenarioConfig(sp.Base)
		} else if gridSize(sp, len(s.Utils)) <= 1000 {
			if points, err := sp.Expand(s.Utils); err == nil {
				for _, pt := range points {
					_, _ = s.scenarioConfig(pt.Patches...)
				}
			}
		}
		out, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("marshal loaded spec: %v", err)
		}
		again, err := scenario.Load(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("reload %s: %v", out, err)
		}
		if again.Hash() != sp.Hash() {
			t.Fatalf("hash %s became %s through %s", sp.Hash(), again.Hash(), out)
		}
	})
}

// gridSize is the number of points sp expands to with utils utilization
// values: the fuzzer can write a cross product of any size in a few
// hundred bytes, and only its binding is under test.
func gridSize(sp *scenario.Spec, utils int) int {
	n := 1
	for _, ax := range sp.Axes {
		k := len(ax.Values)
		if ax.ScaleUtils {
			k = utils
		}
		n *= max(k, 1)
		if n > 1000 {
			return n
		}
	}
	return n
}
