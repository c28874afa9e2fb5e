package core

import (
	"math"
	"slices"
	"testing"

	"github.com/olive-vne/olive/internal/vnet"
)

// refEntry is one entry of the reference departure queue.
type refEntry struct {
	slot, seq int
	rec       int32
}

// refDepartures is the reference release order: a binary min-heap on
// (slot, push sequence). It is what the calendar must agree with entry for
// entry — slot order, and within a slot push order.
type refDepartures []refEntry

func (h refDepartures) less(i, j int) bool {
	return h[i].slot < h[j].slot || (h[i].slot == h[j].slot && h[i].seq < h[j].seq)
}

func (h *refDepartures) push(x refEntry) {
	*h = append(*h, x)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *refDepartures) pop() refEntry {
	q := *h
	top, n := q[0], len(q)-1
	q[0] = q[n]
	q = q[:n]
	*h = q
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q.less(c+1, c) {
			c++
		}
		if !q.less(c, i) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	return top
}

// popUntil pops every entry due at or before slot t, returning the records
// in release order.
func (h *refDepartures) popUntil(t int) []int32 {
	var out []int32
	for len(*h) > 0 && (*h)[0].slot <= t {
		out = append(out, h.pop().rec)
	}
	return out
}

// TestCalendarMatchesReferenceHeap drives engines through seeded random
// sequences of Process, StartSlot jumps (forward, backward and to
// math.MaxInt), ReleaseByID and ID reuse, with departures inside the ring,
// past its span (the far list and its sweeps) and at a few shared anchor
// slots (so that far and direct entries meet in one bucket), while a
// reference heap ordered by (slot, push sequence) is fed every accepted
// request's record. Every StartSlot must free exactly the records the
// reference pops, in the same order.
func TestCalendarMatchesReferenceHeap(t *testing.T) {
	g := tinySubstrate()
	app := tinyApp()
	for seed := uint64(1); seed <= 12; seed++ {
		e, err := NewEngine(g, []*vnet.App{app}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rng := testRNG(seed)
		var ref refDepartures
		seq, nextID, far := 0, 0, 0
		var accepted []int
		startSlot := func(to int) {
			t.Helper()
			before := len(e.freeRecs)
			e.StartSlot(to)
			got := e.freeRecs[before:]
			if want := ref.popUntil(to); !slices.Equal(got, want) {
				t.Fatalf("seed %d: StartSlot(%d) freed records %v, the reference %v", seed, to, got, want)
			}
		}
		for step := 0; step < 4000; step++ {
			switch k := rng.IntN(200); {
			case k < 12:
				startSlot(e.now + rng.IntN(64))
			case k < 14:
				startSlot(e.now + rng.IntN(3*calendarSpan))
			case k < 20:
				startSlot(e.now - rng.IntN(5)) // backward: a no-op
			case k < 40:
				if len(accepted) > 0 {
					e.ReleaseByID(accepted[rng.IntN(len(accepted))])
				}
			default:
				id := nextID
				if len(accepted) > 0 && rng.IntN(6) == 0 {
					id = accepted[rng.IntN(len(accepted))] // reuse, or a duplicate
				} else {
					nextID++
				}
				var dep int
				switch rng.IntN(8) {
				case 0: // past the ring's span
					dep = e.now + calendarSpan + rng.IntN(4*calendarSpan)
				case 1: // an anchor slot, far now or soon reached directly
					dep = (e.now/512 + 1 + rng.IntN(12)) * 512
				default:
					dep = e.now + 1 + rng.IntN(40)
				}
				out, err := e.Process(req(id, 0, 0, 0.1, e.now, dep-e.now))
				if err != nil || !out.Accepted {
					continue
				}
				ri, ok := e.ids.get(id)
				if !ok {
					t.Fatalf("seed %d: accepted request %d is not in the ID index", seed, id)
				}
				if dep-e.now > calendarSpan {
					far++
				}
				ref.push(refEntry{slot: dep, seq: seq, rec: ri})
				seq++
				accepted = append(accepted, id)
			}
			if step%200 == 0 {
				if err := e.CheckInvariants(); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
		}
		if far == 0 || len(e.cal.head) != calendarSpan {
			t.Fatalf("seed %d: vacuous run: %d far departures, ring of %d", seed, far, len(e.cal.head))
		}
		startSlot(math.MaxInt)
		if err := e.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if e.ActiveCount() != 0 || e.cal.pending != 0 || len(e.freeRecs) != len(e.recs) {
			t.Fatalf("seed %d: drain left %d active, %d entries, %d of %d records free", seed, e.ActiveCount(), e.cal.pending, len(e.freeRecs), len(e.recs))
		}
	}
}

// TestEngineClock pins the engine's clock: it reads slot 0 before the
// first StartSlot, a request must depart after it, and StartSlot never
// moves it backward — an earlier slot releases nothing.
func TestEngineClock(t *testing.T) {
	g := tinySubstrate()
	e, err := NewEngine(g, []*vnet.App{tinyApp()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Process(req(0, 0, 0, 10, -2, 2)); err == nil {
		t.Fatal("a request departing at slot 0 was accepted before the first StartSlot")
	}
	if out, err := e.Process(req(1, 0, 0, 10, 0, 3)); err != nil || !out.Accepted {
		t.Fatalf("Process before the first StartSlot = (%+v, %v), want accepted", out, err)
	}
	e.StartSlot(5)
	if e.ActiveCount() != 0 {
		t.Fatal("StartSlot(5) kept a request departing at 3")
	}
	if out, err := e.Process(req(2, 0, 0, 10, 5, 4)); err != nil || !out.Accepted {
		t.Fatalf("Process at slot 5 = (%+v, %v), want accepted", out, err)
	}
	e.StartSlot(2)
	if e.now != 5 || e.ActiveCount() != 1 {
		t.Fatalf("StartSlot(2) after slot 5: clock %d, %d active, want 5 and 1", e.now, e.ActiveCount())
	}
	for _, r := range []struct{ arrive, dur int }{{2, 3}, {4, 1}, {3, 2}} {
		if _, err := e.Process(req(3, 0, 0, 10, r.arrive, r.dur)); err == nil {
			t.Fatalf("a request departing at %d was accepted at slot 5", r.arrive+r.dur)
		}
	}
	e.StartSlot(9)
	if err := e.CheckInvariants(); err != nil || e.ActiveCount() != 0 || !sameFloats(slices.Clone(e.ResidualView()), g.Capacities()) {
		t.Fatalf("after the drain: %v, %d active", err, e.ActiveCount())
	}
}
