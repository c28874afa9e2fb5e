package serve

import (
	"errors"
	"fmt"
	"time"
)

// Resize errors, distinguishable by the HTTP layer.
var (
	// ErrResizeBusy: another resize is in progress.
	ErrResizeBusy = errors.New("serve: resize already in progress")
	// ErrDraining: the server is shutting down.
	ErrDraining = errors.New("serve: draining")
)

// ResizeResult reports what a Resize did.
type ResizeResult struct {
	// Shards is the routable shard count after the resize.
	Shards int `json:"shards"`
	// Created counts newly constructed shards, Revived counts retired
	// shards returned to the routing table, Retired counts shards
	// removed from it.
	Created int `json:"created"`
	Revived int `json:"revived"`
	Retired int `json:"retired"`
}

// Resize grows or shrinks the routable shard set to n, re-partitioning
// free capacity through serialized ops on the shards themselves:
//
//   - Shrink: the routing table drops the tail shards first (no new
//     embeds land on them), then each retired shard donates its entire
//     free residual, split equally across the survivors. Retired shards
//     keep running — they still own live embeddings, serve their
//     releases and departures, and capacity freed after retirement pools
//     on them until a later resize recycles it.
//   - Grow: retired shards are revived first (bringing pooled capacity
//     back into service), then fresh shards are constructed against the
//     currently published plan generation. Each currently routable shard
//     donates a (1 − old/new) fraction of its free residual, split
//     equally across the newcomers, and only then does the routing table
//     switch.
//
// Capacity is conserved: every unit moved is first removed from exactly
// one shard's residual and then deposited into exactly one other's, both
// as serialized shard operations, so concurrent embeds can never observe
// (or jointly admit against) duplicated capacity. Allocated capacity
// never moves — only free residual does.
//
// Rehashing is cheap but real: ingresses map onto the new table modulus,
// so a class's requests may land on a different shard afterwards (the
// documented packing-quality cost of sharding, momentarily at its
// worst). Requests waiting for a shard decide on the shard they were
// routed to.
//
// Resize registers with the drain protocol (it refuses with ErrDraining
// once draining starts), so Drain waits for it. One resize runs
// at a time; concurrent calls fail fast with ErrResizeBusy.
func (s *Server) Resize(n int) (ResizeResult, error) {
	if n <= 0 {
		return ResizeResult{}, fmt.Errorf("serve: resize to %d shards", n)
	}
	if !s.admit() {
		return ResizeResult{}, ErrDraining
	}
	defer s.inflight.Done()
	if !s.resizeMu.TryLock() {
		return ResizeResult{}, ErrResizeBusy
	}
	defer s.resizeMu.Unlock()

	cur := s.routeShards()
	if n == len(cur) {
		return ResizeResult{Shards: n}, nil
	}
	if n < len(cur) {
		return s.shrink(cur, n)
	}
	return s.grow(cur, n)
}

func (s *Server) shrink(cur []*shard, n int) (ResizeResult, error) {
	keep := append([]*shard(nil), cur[:n]...)
	retiring := cur[n:]
	// Stop routing to the tail before harvesting it, so post-harvest
	// arrivals (which would meet an empty residual and be rejected) are
	// limited to requests already routed there.
	s.route.Store(&keep)
	for _, sh := range retiring {
		sh.retired.Store(true)
	}
	pot := s.harvest(retiring, 0)
	s.deposit(keep, pot)
	return ResizeResult{Shards: n, Retired: len(retiring)}, nil
}

func (s *Server) grow(cur []*shard, n int) (ResizeResult, error) {
	// Revive retired shards in index order before building new ones:
	// whatever capacity drained back onto them since retirement returns
	// to service with them.
	var joiners []*shard
	revived := 0
	for _, sh := range s.allShards() {
		if len(cur)+len(joiners) >= n {
			break
		}
		if sh.retired.Load() {
			joiners = append(joiners, sh)
			revived++
		}
	}
	all := s.allShards()
	created := 0
	for len(cur)+len(joiners) < n {
		sh, err := s.buildShard(len(all)+created, 0)
		if err != nil {
			return ResizeResult{}, err
		}
		s.met.registerShard(sh)
		joiners = append(joiners, sh)
		created++
	}
	if created > 0 {
		grown := append(append([]*shard(nil), all...), joiners[len(joiners)-created:]...)
		s.all.Store(&grown)
	}
	// Newly built shards hold the published plan already; revived shards
	// may have missed swaps while retired. Re-publish to the joiners.
	if pu := s.curPlanUpdate(); pu != nil {
		for _, sh := range joiners[:revived] {
			sh.pending.Store(pu)
		}
	}
	pot := s.harvest(cur, float64(len(cur))/float64(n))
	s.deposit(joiners, pot)
	for _, sh := range joiners {
		sh.retired.Store(false)
	}
	newRoute := append(append([]*shard(nil), cur...), joiners...)
	s.route.Store(&newRoute)
	return ResizeResult{Shards: n, Created: created, Revived: revived}, nil
}

// curPlanUpdate wraps the published plan as a planUpdate for late
// joiners, or nil for plan-less servers.
func (s *Server) curPlanUpdate() *planUpdate {
	p := s.curPlan.Load()
	if p == nil {
		return nil
	}
	return &planUpdate{p: p, gen: s.planGen.Load(), published: time.Now()}
}

// harvest asks each donor shard — as a serialized op, so the scale-down
// is atomic against its decisions — to keep the given
// fraction of its free residual, and accumulates the donated remainder.
func (s *Server) harvest(donors []*shard, keepFraction float64) []float64 {
	pot := make([]float64, s.g.NumElements())
	for _, sh := range donors {
		res, _ := sh.submit(op{kind: opScaleDonate, factor: keepFraction}, true)
		for i, v := range res.donated {
			pot[i] += v
		}
	}
	return pot
}

// deposit splits the pot equally across the receivers, assigning the
// last receiver the exact remainder so the redistribution sums back to
// the harvested total bit-for-bit modulo float rounding.
func (s *Server) deposit(receivers []*shard, pot []float64) {
	if len(receivers) == 0 {
		return
	}
	share := make([]float64, len(pot))
	rest := append([]float64(nil), pot...)
	for i, v := range pot {
		share[i] = v / float64(len(receivers))
	}
	for k, sh := range receivers {
		vec := share
		if k == len(receivers)-1 {
			vec = rest
		}
		sh.submit(op{kind: opAddResidual, vec: vec}, true)
		if k < len(receivers)-1 {
			for i := range rest {
				rest[i] -= share[i]
			}
		}
	}
}
