package embedder

// CountersSnapshot is a copy of one Oracle's work counts, cumulative since
// the oracle was built (see Oracle.Work). Every link scan examines all n
// entries of its child row, so DPFills, BanRescans and ExclRescans fix the
// scans' work too.
type CountersSnapshot struct {
	// DPFills counts embedding DP tables filled bottom-up from scratch —
	// memoized and restricted alike: up to n link scans per child link,
	// each of which examines all n child entries. A child that SolveBan or
	// SolveExclude derives from its parent's table is not a fill; its work
	// is counted in BanRescans or ExclRescans.
	DPFills int64
	// DPTableHits counts unrestricted queries answered from an app's
	// memoized table without a fill.
	DPTableHits int64
	// BanRescans counts the DP entries SolveBan recomputed: one link scan
	// and one re-sum each, where a full fill would have redone every entry
	// of every row.
	BanRescans int64
	// ExclRescans counts the link scans SolveExclude ran, each followed by
	// its entry's re-sum: the entries whose chosen path the exclusion may
	// have closed or whose chosen child changed, where a fill would have
	// rescanned every entry of every row.
	ExclRescans int64
	// CollocOrders counts the candidate orders BestCollocated's walks were
	// built from: one per (app, ingress) and price generation, scored and
	// sorted once, where every greedy call used to score and sort every
	// node.
	CollocOrders int64
}

// Work returns the oracle's work counts. Like the rest of the Oracle it
// is not safe for concurrent use: read it from the goroutine that queries
// the oracle, or after it has stopped.
func (o *Oracle) Work() CountersSnapshot { return o.work }
