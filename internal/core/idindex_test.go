package core

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestIDIndexMatchesMap runs seeded random put/get/remove sequences
// against a Go map over adversarial key families, growing the table
// across several doublings. After every remove, every key is looked up
// again, so a delete that breaks a probe run (instead of shifting the run
// back into its hole) is caught at once.
func TestIDIndexMatchesMap(t *testing.T) {
	families := []struct {
		name string
		key  func(rng *rand.Rand) int
	}{
		{"dense", func(rng *rand.Rand) int { return rng.IntN(3000) }},
		{"multiples of the table size", func(rng *rand.Rand) int {
			return (rng.IntN(1500) - 750) << (4 + rng.IntN(10))
		}},
		{"negatives", func(rng *rand.Rand) int { return -1 - rng.IntN(3000) }},
		{"extremes", func(rng *rand.Rand) int {
			switch rng.IntN(4) {
			case 0:
				return math.MinInt + rng.IntN(500)
			case 1:
				return math.MaxInt - rng.IntN(500)
			default:
				return rng.IntN(1000) - 500
			}
		}},
		{"random 64-bit", func(rng *rand.Rand) int { return int(rng.Uint64()) }},
	}
	for fi, f := range families {
		rng := testRNG(uint64(fi + 1))
		var x idIndex
		want := make(map[int]int32)
		lookupAll := func(op string) {
			t.Helper()
			for k, v := range want {
				if got, ok := x.get(k); !ok || got != v {
					t.Fatalf("%s: after %s, get(%d) = (%d, %v), want (%d, true)", f.name, op, k, got, ok, v)
				}
			}
			if x.n != len(want) {
				t.Fatalf("%s: after %s, %d entries, want %d", f.name, op, x.n, len(want))
			}
		}
		var keys []int // every key put, to remove present ones too
		for step := 0; step < 12000; step++ {
			k := f.key(rng)
			// Grow to ~2000 keys, then churn around that size.
			puts := 5
			if len(want) < 2000 {
				puts = 7
			}
			if rng.IntN(10) < puts {
				v := int32(rng.IntN(1 << 20))
				x.put(k, v)
				want[k] = v
				keys = append(keys, k)
			} else {
				if len(keys) > 0 && rng.IntN(2) == 0 {
					k = keys[rng.IntN(len(keys))]
				}
				x.remove(k)
				delete(want, k)
				lookupAll("remove")
			}
			got, ok := x.get(k)
			if w, in := want[k]; ok != in || got != w && in {
				t.Fatalf("%s: get(%d) = (%d, %v), want (%d, %v)", f.name, k, got, ok, w, in)
			}
			if step%1000 == 0 {
				if err := x.check(); err != nil {
					t.Fatalf("%s: %v", f.name, err)
				}
			}
		}
		if len(x.slots) < 1<<10 {
			t.Fatalf("%s: table of %d slots, want several doublings", f.name, len(x.slots))
		}
		lookupAll("the run")
		for k := range want {
			x.remove(k)
		}
		if err := x.check(); err != nil || x.n != 0 {
			t.Fatalf("%s: emptied index holds %d entries: %v", f.name, x.n, err)
		}
	}
}
