package main

import (
	"maps"
	"testing"

	"github.com/olive-vne/olive/internal/scenario"
	"github.com/olive-vne/olive/internal/topo"
)

// TestSpecHashesPinned pins the hash of every run vnesim makes of a
// registered spec: the spec's own hash, and for the specs that run per
// topology, the hash of each topology's run. The hash keys every
// artifact a run stores, so a changed hash makes -resume recompute every
// cell of that run over an existing store.
func TestSpecHashesPinned(t *testing.T) {
	want := map[string]string{
		"table2":            "e95e9c669e188248",
		"table3":            "68d144a0ef90342d",
		"fig6+7":            "9bf5dafd1490990d",
		"fig6+7/iris":       "eb143b20e425de9d",
		"fig6+7/cittastudi": "acf8c324f64f60bd",
		"fig6+7/5gen":       "32967b5a5e93a948",
		"fig6+7/100n150e":   "c2c12f6b470f05df",
		"fig8":              "5ebb6a1100410813",
		"fig9":              "cb16b2fd9f353b02",
		"fig10":             "26a87fd9497d82ab",
		"fig11":             "0ed79ee7d4d6842b",
		"fig12":             "7186ae355ae2bf0d",
		"fig13":             "9a6540b4b70669fd",
		"fig14":             "273af96c903b86c9",
		"fig15":             "72c4002d2c3562ca",
		"fig16a":            "ab79a699f3074baa",
		"fig16":             "7ea715503dcd4ce5",
		"fig16/iris":        "b590b2e5a5db5f1b",
		"fig16/cittastudi":  "2874cd130463cbf8",
		"fig16/5gen":        "b70077de5f72091b",
		"fig16/100n150e":    "35b162baa3817e69",
	}
	got := map[string]string{}
	for _, name := range scenario.Names() {
		sp := scenario.MustLookup(name)
		got[name] = sp.Hash()
		if perTopology(sp) {
			for i, r := range topologyRuns(sp, topo.All()) {
				got[name+"/"+string(topo.All()[i])] = r.Hash()
			}
		}
	}
	if !maps.Equal(got, want) {
		for k, v := range got {
			if want[k] != v {
				t.Errorf("%s: hash %s, want %s", k, v, want[k])
			}
		}
		for k := range want {
			if _, ok := got[k]; !ok {
				t.Errorf("%s: pinned but not a run of any registered spec", k)
			}
		}
	}
}
