package lp

import "sync/atomic"

// Solve instrumentation. The package keeps always-on process-wide
// counters — a handful of atomic adds per solve, and solves are orders
// of magnitude rarer than pivots. They observe a finished Solution, so
// they cannot perturb solver decisions.

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
	pivotsBland  atomic.Int64
}

// Stats snapshots the package-wide solve counters. Every pivot Bland's
// rule did not price was priced by Devex, so PivotsDevex is the
// difference.
func Stats() CountersSnapshot {
	bland := counters.pivotsBland.Load()
	pivots := counters.pivots.Load()
	return CountersSnapshot{
		Solves:           counters.solves.Load(),
		WarmAttempts:     counters.warmAttempts.Load(),
		WarmHits:         counters.warmHits.Load(),
		Pivots:           pivots,
		Refactorizations: counters.refacts.Load(),
		PricingScans:     counters.pricingScans.Load(),
		PivotsDevex:      pivots - bland,
		PivotsBland:      bland,
	}
}

// recordSolve folds one completed solution into the counters.
func recordSolve(sol *Solution) {
	counters.solves.Add(1)
	counters.pivots.Add(int64(sol.Iterations))
	counters.refacts.Add(int64(sol.Refactorizations))
	counters.pricingScans.Add(int64(sol.PricingScans))
	counters.pivotsBland.Add(int64(sol.BlandPivots))
	if sol.WarmStarted {
		counters.warmHits.Add(1)
	}
}
