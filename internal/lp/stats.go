package lp

import "sync/atomic"

// Solve instrumentation. The package keeps always-on process-wide
// counters — a handful of atomic adds per solve, and solves are orders
// of magnitude rarer than pivots — and offers an optional per-solve
// hook for sinks that want the individual events (the serving layer's
// metrics registry). Neither path can perturb solver decisions: both
// observe a finished Solution.

// SolveStats describes one completed solve, as delivered to the hook.
type SolveStats struct {
	// Status is the final solve status.
	Status Status
	// Pivots is the simplex pivot count across both phases.
	Pivots int
	// Refactorizations is the basis LU rebuild count.
	Refactorizations int
	// PricingScans counts the nonbasic columns pricing examined.
	PricingScans int
	// BlandPivots is the subset of Pivots taken under the Bland
	// anti-cycling fallback.
	BlandPivots int
	// WarmStarted reports a successful warm start (SolveFrom that did
	// not fall back to a cold solve).
	WarmStarted bool
}

// CountersSnapshot is a point-in-time copy of the package counters.
// All fields are cumulative since process start.
type CountersSnapshot struct {
	// Solves counts completed solves (any status; errors excluded).
	Solves int64
	// WarmAttempts counts SolveFrom calls that had a basis to try.
	WarmAttempts int64
	// WarmHits counts attempts that completed without the cold fallback.
	WarmHits int64
	// Pivots is the total simplex pivot count.
	Pivots int64
	// Refactorizations is the total basis LU rebuild count.
	Refactorizations int64
	// PricingScans is the total nonbasic-column count examined by
	// pricing — the scan work the Devex partial-pricing sections cut.
	PricingScans int64
	// PivotsDevex/PivotsBland split Pivots by the rule that priced each
	// pivot's entering column (Bland is the anti-cycling fallback).
	PivotsDevex int64
	PivotsBland int64
}

var counters struct {
	solves       atomic.Int64
	warmAttempts atomic.Int64
	warmHits     atomic.Int64
	pivots       atomic.Int64
	refacts      atomic.Int64
	pricingScans atomic.Int64
	pivotsDevex  atomic.Int64
	pivotsBland  atomic.Int64
}

var solveHook atomic.Pointer[func(SolveStats)]

// Stats snapshots the package-wide solve counters.
func Stats() CountersSnapshot {
	return CountersSnapshot{
		Solves:           counters.solves.Load(),
		WarmAttempts:     counters.warmAttempts.Load(),
		WarmHits:         counters.warmHits.Load(),
		Pivots:           counters.pivots.Load(),
		Refactorizations: counters.refacts.Load(),
		PricingScans:     counters.pricingScans.Load(),
		PivotsDevex:      counters.pivotsDevex.Load(),
		PivotsBland:      counters.pivotsBland.Load(),
	}
}

// SetSolveHook installs f to be called after every completed solve
// (nil uninstalls). The hook runs on the solving goroutine; keep it
// cheap and never call back into the solver from it.
func SetSolveHook(f func(SolveStats)) {
	if f == nil {
		solveHook.Store(nil)
		return
	}
	solveHook.Store(&f)
}

// recordSolve folds one completed solution into the counters and fires
// the hook.
func recordSolve(sol *Solution) {
	counters.solves.Add(1)
	counters.pivots.Add(int64(sol.Iterations))
	counters.refacts.Add(int64(sol.Refactorizations))
	counters.pricingScans.Add(int64(sol.PricingScans))
	bland := int64(sol.BlandPivots)
	if bland > 0 {
		counters.pivotsBland.Add(bland)
	}
	if devex := int64(sol.Iterations) - bland; devex > 0 {
		counters.pivotsDevex.Add(devex)
	}
	if sol.WarmStarted {
		counters.warmHits.Add(1)
	}
	if h := solveHook.Load(); h != nil {
		(*h)(SolveStats{
			Status:           sol.Status,
			Pivots:           sol.Iterations,
			Refactorizations: sol.Refactorizations,
			PricingScans:     sol.PricingScans,
			BlandPivots:      sol.BlandPivots,
			WarmStarted:      sol.WarmStarted,
		})
	}
}
