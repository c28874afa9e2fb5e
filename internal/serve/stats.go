package serve

import (
	"math"
	"net/http"
	"time"

	"github.com/olive-vne/olive/internal/lp"
	"github.com/olive-vne/olive/internal/plan"
)

// revenue sums the shards' revenue counters.
func (s *Server) revenue() float64 {
	var t float64
	for _, sh := range s.allShards() {
		t += sh.revenue()
	}
	return t
}

// ShardStats is one shard's /v1/stats entry.
type ShardStats struct {
	Shard     int   `json:"shard"`
	Processed int64 `json:"processed"`
	Accepted  int64 `json:"accepted"`
	Rejected  int64 `json:"rejected"`
	Active    int64 `json:"active"`
	Queue     int   `json:"queue"`
	QueueCap  int   `json:"queue_cap"`
	// Shed counts requests answered 429 because this shard's queue was
	// full (counted at the HTTP layer; the shard never saw them).
	Shed int64 `json:"shed"`
	// Utilization is the allocated fraction of this shard's capacity
	// slice (1 − Σresidual/Σslice).
	Utilization float64 `json:"utilization"`
	// Generation is the plan generation this shard's engine currently
	// runs (it trails the published generation until the shard's next
	// serialized operation).
	Generation int64 `json:"generation"`
	// Retired marks shards removed from the routing table by a shrink;
	// they still serve releases and departures for embeddings they own.
	Retired bool `json:"retired,omitempty"`
	// HistoryDepth is the request count in this shard's rolling replan
	// history ring (0 with replanning off).
	HistoryDepth int `json:"history_depth,omitempty"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	UptimeS       float64 `json:"uptime_s"`
	Shards        int     `json:"shards"`
	Algorithm     string  `json:"algorithm"`
	Deterministic bool    `json:"deterministic"`

	Requests struct {
		Total          int64   `json:"total"`
		Accepted       int64   `json:"accepted"`
		Rejected       int64   `json:"rejected"`
		Preempted      int64   `json:"preempted"`
		Released       int64   `json:"released"`
		AcceptanceRate float64 `json:"acceptance_rate"`
		// Shed is the queue-full 429 total across shards; RateLimited is
		// the admission-control 429 total (global + per-client buckets).
		// Neither is included in Total: shed requests never reached an
		// engine.
		Shed        int64 `json:"shed"`
		RateLimited int64 `json:"rate_limited"`
	} `json:"requests"`

	// Revenue is Σ demand·duration over accepted requests (the VNE
	// revenue proxy; preemptions are not clawed back).
	Revenue float64 `json:"revenue"`

	// Latency is the embed decision latency (enqueue to decision) over
	// every embed the server answered, read off the
	// vne_request_duration_seconds histogram: each quantile is exact to
	// the resolution of its doubling bucket.
	Latency struct {
		P50US   int64 `json:"p50_us"`
		P90US   int64 `json:"p90_us"`
		P99US   int64 `json:"p99_us"`
		P999US  int64 `json:"p999_us"`
		Samples int64 `json:"samples"`
	} `json:"latency"`

	// Replan reports the adaptive-replanning state: the published plan
	// generation, the rebuild outcome counters, and the provenance of
	// the last published generation.
	Replan struct {
		Enabled             bool  `json:"enabled"`
		Generation          int64 `json:"generation"`
		Rebuilds            int64 `json:"rebuilds"`
		Failed              int64 `json:"failed"`
		Skipped             int64 `json:"skipped"`
		LastBuiltSlot       int64 `json:"last_built_slot"`
		LastHistoryRequests int64 `json:"last_history_requests"`
		LastClasses         int64 `json:"last_classes"`
		HistoryDepth        int   `json:"history_depth"`
	} `json:"replan"`

	// LP aggregates the process-wide solver counters (the daemon owns
	// the process, so they are effectively server counters).
	LP struct {
		Solves           int64 `json:"solves"`
		WarmAttempts     int64 `json:"warm_attempts"`
		WarmHits         int64 `json:"warm_hits"`
		Pivots           int64 `json:"pivots"`
		PivotsDevex      int64 `json:"pivots_devex"`
		PivotsBland      int64 `json:"pivots_bland"`
		PricingScans     int64 `json:"pricing_scans"`
		Refactorizations int64 `json:"refactorizations"`
		PlanBuilds       int64 `json:"plan_builds"`
	} `json:"lp"`

	PerShard []ShardStats `json:"per_shard"`
}

// Stats snapshots the service counters.
func (s *Server) Stats() StatsResponse {
	var out StatsResponse
	out.UptimeS = time.Since(s.started).Seconds()
	out.Shards = len(s.routeShards())
	out.Algorithm = string(s.opts.Algorithm)
	out.Deterministic = s.opts.Deterministic
	for _, sh := range s.allShards() {
		ss := ShardStats{
			Shard:       sh.idx,
			Processed:   sh.processed.Load(),
			Accepted:    sh.accepted.Load(),
			Rejected:    sh.rejected.Load(),
			Active:      sh.active.Load(),
			Queue:       int(sh.waiting.Load()),
			QueueCap:    sh.depth,
			Shed:        sh.shed.Load(),
			Utilization: sh.utilization(),
			Generation:  sh.gen.Load(),
			Retired:     sh.retired.Load(),
		}
		if sh.hist != nil {
			ss.HistoryDepth = sh.hist.depth()
		}
		out.PerShard = append(out.PerShard, ss)
		out.Requests.Total += ss.Processed
		out.Requests.Accepted += ss.Accepted
		out.Requests.Rejected += ss.Rejected
		out.Requests.Preempted += sh.preempted.Load()
		out.Requests.Released += sh.released.Load()
		out.Requests.Shed += ss.Shed
	}
	if out.Requests.Total > 0 {
		out.Requests.AcceptanceRate = float64(out.Requests.Accepted) / float64(out.Requests.Total)
	}
	out.Requests.RateLimited = s.shedGlobal.Load() + s.shedClient.Load()
	out.Revenue = s.revenue()
	out.Replan.Enabled = s.replan != nil
	out.Replan.Generation = s.planGen.Load()
	out.Replan.HistoryDepth = s.historyDepth()
	if r := s.replan; r != nil {
		out.Replan.Rebuilds = r.rebuilds.Load()
		out.Replan.Failed = r.failed.Load()
		out.Replan.Skipped = r.skipped.Load()
		out.Replan.LastBuiltSlot = r.lastBuiltSlot.Load()
		out.Replan.LastHistoryRequests = r.lastHistory.Load()
		out.Replan.LastClasses = r.lastClasses.Load()
	}
	h := s.met.reqDur
	us := func(q float64) int64 { return int64(math.Round(h.Quantile(q) * 1e6)) }
	out.Latency.P50US, out.Latency.P90US = us(0.50), us(0.90)
	out.Latency.P99US, out.Latency.P999US = us(0.99), us(0.999)
	out.Latency.Samples = int64(h.Count())
	lps := lp.Stats()
	out.LP.Solves = lps.Solves
	out.LP.WarmAttempts = lps.WarmAttempts
	out.LP.WarmHits = lps.WarmHits
	out.LP.Pivots = lps.Pivots
	out.LP.PivotsDevex = lps.PivotsDevex
	out.LP.PivotsBland = lps.PivotsBland
	out.LP.PricingScans = lps.PricingScans
	out.LP.Refactorizations = lps.Refactorizations
	out.LP.PlanBuilds = plan.Stats().Builds
	return out
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
