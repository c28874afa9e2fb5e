package main

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/olive-vne/olive/internal/topo"
	"github.com/olive-vne/olive/internal/workload"
)

func smokeTrace(t *testing.T, seed uint64) *workload.Trace {
	t.Helper()
	scn, err := newScenario(topo.CittaStudi)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := scn.trace(traceSpec{stream: 0x77, slots: 50, lambda: 3, util: 1.2}, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSameSeedSameStream(t *testing.T) {
	a, b := smokeTrace(t, 5), smokeTrace(t, 5)
	if got, want := fmt.Sprintf("%v", a.Requests), fmt.Sprintf("%v", b.Requests); got != want {
		t.Fatal("the same seed gave two different streams")
	}
}

// Another seed must change what is asked for, and only that: arrivals
// (slot and ingress of every request) belong to the scenario, and the
// marks are the same multiset dealt out differently.
func TestOtherSeedOtherMarksSameArrivals(t *testing.T) {
	a, b := smokeTrace(t, 5), smokeTrace(t, 6)
	if len(a.Requests) != len(b.Requests) {
		t.Fatalf("%d and %d requests", len(a.Requests), len(b.Requests))
	}
	type mark struct {
		app, dur int
		demand   float64
	}
	marks := func(tr *workload.Trace) []mark {
		ms := make([]mark, len(tr.Requests))
		for i, r := range tr.Requests {
			ms[i] = mark{r.App, r.Duration, r.Demand}
		}
		return ms
	}
	ma, mb := marks(a), marks(b)
	differ := 0
	for i := range a.Requests {
		ra, rb := a.Requests[i], b.Requests[i]
		if ra.ID != rb.ID || ra.Arrive != rb.Arrive || ra.Ingress != rb.Ingress {
			t.Fatalf("request %d arrives differently: %+v vs %+v", i, ra, rb)
		}
		if ma[i] != mb[i] {
			differ++
		}
	}
	if differ < len(ma)/2 {
		t.Errorf("only %d of %d requests changed with the seed", differ, len(ma))
	}
	less := func(ms []mark) func(i, j int) bool {
		return func(i, j int) bool {
			x, y := ms[i], ms[j]
			if x.demand != y.demand {
				return x.demand < y.demand
			}
			if x.app != y.app {
				return x.app < y.app
			}
			return x.dur < y.dur
		}
	}
	sort.Slice(ma, less(ma))
	sort.Slice(mb, less(mb))
	if !reflect.DeepEqual(ma, mb) {
		t.Error("the two seeds do not deal out the same marks")
	}
}
