package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// expected.json pins, for one seed at full scale, the outputs that are
// exact functions of the inputs: the plans' objective, the rejection
// ratios and the simplex pivot count. They are what "same behaviour"
// means for a change that claims to alter none of it. A difference is
// reported, not fatal: a change to the LP or to the plan legitimately
// moves them, and then says so.
//
//go:embed testdata/expected.json
var expectedJSON []byte

type expectedPins struct {
	Seed      uint64                        `json:"seed"`
	Workloads map[string]map[string]float64 `json:"workloads"`
}

func readPins() (*expectedPins, error) {
	var p expectedPins
	if err := json.Unmarshal(expectedJSON, &p); err != nil {
		return nil, fmt.Errorf("testdata/expected.json: %w", err)
	}
	return &p, nil
}

// reportPins prints, for a full-scale run on the pinned seed, whether each
// pinned metric the run reported still has its pinned value.
func reportPins(w io.Writer, rec *record, sc scale) error {
	pins, err := readPins()
	if err != nil {
		return err
	}
	if sc != scaleFull || rec.Seed != pins.Seed {
		return nil
	}
	for _, name := range sortedKeys(pins.Workloads[rec.Workload]) {
		got, ok := rec.Report.Metrics[name]
		if !ok {
			continue // the other altitude reports it
		}
		want := pins.Workloads[rec.Workload][name]
		if math.Abs(got.Value-want) <= 1e-12*math.Abs(want) {
			fmt.Fprintf(w, "  pinned %s = %.17g: unchanged\n", name, want)
		} else {
			fmt.Fprintf(w, "  pinned %s = %.17g: NOW %.17g\n", name, want, got.Value)
		}
	}
	return nil
}
