package core

import (
	"testing"

	"github.com/olive-vne/olive/internal/embedder"
	"github.com/olive-vne/olive/internal/lp"
	"github.com/olive-vne/olive/internal/substrate"
	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/vnet"
	"github.com/olive-vne/olive/internal/workload"
)

// slotOffWarmSlots is how many untimed slots BenchmarkSlotOffSteps runs
// first: three mean request lifetimes, so the timed slots re-plan a
// steady-state active set.
const slotOffWarmSlots = 30

// BenchmarkSlotOffSteps times SLOTOFF's per-slot re-optimization on
// 100n150e at u = 1.4. One op is one Step: a fresh master over the
// active requests and the slot's arrivals, solved on the Solver every
// earlier slot used, then rounded. The ops are consecutive slots after
// slotOffWarmSlots untimed ones; the trace is generated slot by slot, so
// a longer run only appends slots and -benchtime=Nx always times the same
// N. pivots/op is the simplex pivots of the op's master solves
// (lp.Stats().Pivots), the LP work a change to SLOTOFF's Builds moves.
func BenchmarkSlotOffSteps(b *testing.B) {
	g := topo.MustBuild(topo.Random100, 1)
	rng := testRNG(1)
	apps := vnet.DefaultMix(vnet.DefaultParams(), rng)
	wp := workload.DefaultParams().WithUtilization(1.4)
	wp.Slots = slotOffWarmSlots + b.N
	tr, err := workload.GenerateMMPP(g, wp, rng)
	if err != nil {
		b.Fatal(err)
	}
	slots := tr.PerSlot()
	s, err := NewSlotOffOn(embedder.ForState(substrate.New(g)), apps, SlotOffOptions())
	if err != nil {
		b.Fatal(err)
	}
	step := func(t int) {
		if _, err := s.Step(t, slots[t]); err != nil {
			b.Fatal(err)
		}
	}
	for t := 0; t < slotOffWarmSlots; t++ {
		step(t)
	}
	pivots := lp.Stats().Pivots
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(slotOffWarmSlots + i)
	}
	b.StopTimer()
	b.ReportMetric(float64(lp.Stats().Pivots-pivots)/float64(b.N), "pivots/op")
}
