package embedder

import "sync/atomic"

// CountersSnapshot is a point-in-time copy of the package's work
// counters, cumulative since process start (same shape as plan.Stats).
type CountersSnapshot struct {
	// DPFills counts embedding DP tables filled bottom-up — memoized
	// and restricted/excluded alike: the O(|VNF|·n²) unit of work.
	DPFills int64
	// DPTableHits counts unrestricted queries answered from an app's
	// memoized table without a fill.
	DPTableHits int64
}

var counters struct {
	dpFills     atomic.Int64
	dpTableHits atomic.Int64
}

// Stats snapshots the package-wide work counters.
func Stats() CountersSnapshot {
	return CountersSnapshot{
		DPFills:     counters.dpFills.Load(),
		DPTableHits: counters.dpTableHits.Load(),
	}
}
