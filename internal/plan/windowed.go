package plan

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/vnet"
	"github.com/olive-vne/olive/internal/workload"
)

// WindowedPlan realizes the paper's future-work extension (§VI): offline
// plans that account for *time-dependent* expected demand. The demand
// cycle (e.g. a diurnal period) is divided into W windows; each window
// gets its own PLAN-VNE solution built from the history slots falling into
// that window position. The online engine swaps plans at window
// boundaries (Engine.SwapPlan).
type WindowedPlan struct {
	// Period is the demand cycle length in slots.
	Period int
	// Plans holds one plan per window; window w covers cycle positions
	// [w·Period/W, (w+1)·Period/W).
	Plans []*Plan
}

// At returns the plan governing absolute slot t, or nil if there are no
// plans.
func (wp *WindowedPlan) At(t int) *Plan {
	if len(wp.Plans) == 0 {
		return nil
	}
	return wp.Plans[wp.WindowOf(t)]
}

// WindowOf returns the window index governing absolute slot t.
func (wp *WindowedPlan) WindowOf(t int) int {
	pos := t % wp.Period
	if pos < 0 {
		pos += wp.Period
	}
	w := pos * len(wp.Plans) / wp.Period
	if w >= len(wp.Plans) {
		w = len(wp.Plans) - 1
	}
	return w
}

// BuildWindowed aggregates the history per window position within the
// demand cycle and solves one PLAN-VNE instance per window. The history
// should span at least one full period (more periods give each window
// more samples).
func BuildWindowed(g *graph.Graph, apps []*vnet.App, hist *workload.Trace, period, windows int, opts Options, rng *rand.Rand) (*WindowedPlan, error) {
	if hist == nil || hist.Slots <= 0 {
		return nil, errors.New("plan: empty history")
	}
	if period <= 0 || period > hist.Slots {
		return nil, fmt.Errorf("plan: period %d outside (0,%d]", period, hist.Slots)
	}
	if windows < 1 || windows > period {
		return nil, fmt.Errorf("plan: windows %d outside [1,%d]", windows, period)
	}
	solver := NewSolver(g, apps) // shared warm state across all windows
	wp := &WindowedPlan{Period: period, Plans: make([]*Plan, windows)}
	for w := range windows {
		classes, err := aggregate(hist, len(apps), opts.Alpha, opts.BootstrapB, rng,
			period, w*period/windows, (w+1)*period/windows)
		if err != nil {
			return nil, err
		}
		p, err := solver.Build(classes, opts)
		if err != nil {
			return nil, fmt.Errorf("plan: window %d: %w", w, err)
		}
		wp.Plans[w] = p
	}
	return wp, nil
}
