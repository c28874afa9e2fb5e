package plan

import (
	"strconv"
	"testing"

	"github.com/olive-vne/olive/internal/lp"
)

// TestWarmLRUEviction pins the basis-memory LRU policy: inserts beyond
// the cap evict the least-recently-used entries in a batch down to ¾ of
// cap, recently-read keys survive, and evictions are counted.
func TestWarmLRUEviction(t *testing.T) {
	const cap = 16
	l := newWarmLRU(cap)
	before := Stats().WarmEvictions
	for i := 0; i < cap; i++ {
		l.put("k"+strconv.Itoa(i), lp.StatusBasic)
	}
	if l.len() != cap {
		t.Fatalf("len = %d before overflow, want %d", l.len(), cap)
	}
	// Touch k0 so it is the most recently used entry at overflow time.
	if _, ok := l.get("k0"); !ok {
		t.Fatal("k0 missing before overflow")
	}
	l.put("overflow", lp.StatusUpper)
	want := cap * 3 / 4
	if l.len() != want {
		t.Fatalf("len = %d after eviction, want %d", l.len(), want)
	}
	if got := Stats().WarmEvictions - before; got != int64(cap+1-want) {
		t.Fatalf("WarmEvictions grew by %d, want %d", got, cap+1-want)
	}
	// The just-read and just-written keys survive; the oldest untouched
	// keys are gone.
	if _, ok := l.get("k0"); !ok {
		t.Error("recently-read k0 was evicted")
	}
	if st, ok := l.get("overflow"); !ok || st != lp.StatusUpper {
		t.Errorf("overflow entry = (%v,%v), want (StatusUpper,true)", st, ok)
	}
	if _, ok := l.get("k1"); ok {
		t.Error("oldest entry k1 survived eviction")
	}
	// delete removes without counting as an eviction.
	evBefore := Stats().WarmEvictions
	l.delete("k0")
	if _, ok := l.get("k0"); ok {
		t.Error("deleted k0 still present")
	}
	if Stats().WarmEvictions != evBefore {
		t.Error("delete counted as an eviction")
	}
}
