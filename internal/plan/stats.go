package plan

import "sync/atomic"

// Build instrumentation: always-on process-wide counters mirroring the
// lp package's solve counters one level up, where "warm" means
// round-to-round basis chaining inside one Build — the hit rate the
// ROADMAP's replanning work needs to watch. Pivot-level detail lives in
// lp.Stats().

// CountersSnapshot is a point-in-time copy of the package counters,
// cumulative since process start.
type CountersSnapshot struct {
	// Builds counts completed Solver.Build calls (including empty ones).
	Builds int64
	// MasterSolves counts master-LP solves across all pricing rounds.
	MasterSolves int64
	// WarmAttempts counts master solves that had a basis to warm-start
	// from: every pricing round's solve, from the round before it. A
	// Build's first solve is always cold.
	WarmAttempts int64
	// WarmHits counts warm attempts the LP completed without falling
	// back to a cold solve.
	WarmHits int64
	// PricePoolHits always reads 0: pricing has no candidate pool, and
	// every class query goes to the oracle. The field stays only because
	// the bench module reads it for its plan.price_pool_hits metric.
	PricePoolHits int64
	// PriceOracleCalls counts exact min-cost-embed oracle runs in
	// pricing rounds: one per class per round.
	PriceOracleCalls int64
}

var counters struct {
	builds           atomic.Int64
	masterSolves     atomic.Int64
	warmAttempts     atomic.Int64
	warmHits         atomic.Int64
	priceOracleCalls atomic.Int64
}

// Stats snapshots the package-wide build counters.
func Stats() CountersSnapshot {
	return CountersSnapshot{
		Builds:           counters.builds.Load(),
		MasterSolves:     counters.masterSolves.Load(),
		WarmAttempts:     counters.warmAttempts.Load(),
		WarmHits:         counters.warmHits.Load(),
		PriceOracleCalls: counters.priceOracleCalls.Load(),
	}
}
