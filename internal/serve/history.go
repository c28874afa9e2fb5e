package serve

import (
	"sort"
	"sync"

	"github.com/olive-vne/olive/internal/workload"
)

// historyRing is a bounded ring of the most recent requests one shard
// has processed — the rolling request history the replanner aggregates
// into plan classes. The shard appends on its decision path
// (under an uncontended mutex, into a preallocated buffer: no
// allocation in steady state); the replanner snapshots from outside.
//
// The ring captures offered load: every request the shard decided,
// accepted or rejected. A plan rebuilt from accepted traffic only would
// never learn about the demand the current plan is turning away — which
// is exactly the drift signal replanning exists to pick up.
type historyRing struct {
	mu    sync.Mutex
	buf   []workload.Request // grows to cap, then overwrites in ring order
	next  int                // overwrite cursor once full
	total int64              // lifetime appends (monotonic)
}

func newHistoryRing(n int) *historyRing {
	return &historyRing{buf: make([]workload.Request, 0, n)}
}

// add records one decided request. The caller passes the request as the
// engine saw it: clock-stamped arrival slot and the globally unique,
// monotonically assigned server ID.
func (h *historyRing) add(r workload.Request) {
	h.mu.Lock()
	h.total++
	if len(h.buf) < cap(h.buf) {
		h.buf = append(h.buf, r)
	} else {
		h.buf[h.next] = r
		h.next = (h.next + 1) % len(h.buf)
	}
	h.mu.Unlock()
}

// depth returns the number of requests currently retained.
func (h *historyRing) depth() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.buf)
}

// snapshot appends the retained requests to dst (retention order is
// irrelevant: the exporter sorts the merged shards).
func (h *historyRing) snapshot(dst []workload.Request) []workload.Request {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append(dst, h.buf...)
}

// HistoryTrace exports the merged per-shard request history as a valid
// workload.Trace: requests from every shard (retired shards included —
// their traffic was real), sorted by arrival slot with server IDs
// breaking ties, arrivals rebased to slot 0 and IDs re-densified so
// Trace.Validate holds and plan.Aggregate can consume it directly.
//
// The export is deterministic: server IDs are assigned in request order,
// and in deterministic mode arrival slots are a pure function of the
// request stream, so the same replay stream exports a byte-identical
// trace. With replanning disabled the history is empty (Slots 0).
func (s *Server) HistoryTrace() *workload.Trace {
	var reqs []workload.Request
	for _, sh := range s.allShards() {
		if sh.hist != nil {
			reqs = sh.hist.snapshot(reqs)
		}
	}
	if len(reqs) == 0 {
		return &workload.Trace{}
	}
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].Arrive != reqs[j].Arrive {
			return reqs[i].Arrive < reqs[j].Arrive
		}
		return reqs[i].ID < reqs[j].ID
	})
	base := reqs[0].Arrive
	maxArrive := 0
	for i := range reqs {
		reqs[i].Arrive -= base
		reqs[i].ID = i
		if reqs[i].Arrive > maxArrive {
			maxArrive = reqs[i].Arrive
		}
	}
	return &workload.Trace{Requests: reqs, Slots: maxArrive + 1}
}

// historyDepth sums the retained request counts across shards (the
// vne_replan_history_depth gauge).
func (s *Server) historyDepth() int {
	var t int
	for _, sh := range s.allShards() {
		if sh.hist != nil {
			t += sh.hist.depth()
		}
	}
	return t
}
