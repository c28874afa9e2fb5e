package core

import (
	"fmt"
	"math/bits"
)

// idIndexMinSize is the table size at the first insert.
const idIndexMinSize = 16

// idIndex maps the IDs of the active requests to their record indices: an
// open-addressing table with linear probing and a multiplicative
// (Fibonacci) hash, kept at most half full. Deletion shifts the rest of
// the probe run back into the hole, so no tombstones build up under churn.
// Like the engine's other buffers, the table keeps its high-water size.
type idIndex struct {
	slots []idSlot // len a power of two, or zero
	n     int
	shift uint8 // 64 - log2(len(slots))
}

// idSlot holds one entry; rec is the record index plus one, zero for an
// empty slot.
type idSlot struct {
	id  int
	rec int32
}

// home is the slot at which id's probe run starts.
func (x *idIndex) home(id int) int {
	return int(uint64(id) * 0x9E3779B97F4A7C15 >> x.shift)
}

// find returns the slot holding id, or the empty slot ending its probe run.
func (x *idIndex) find(id int) int {
	mask := len(x.slots) - 1
	i := x.home(id)
	for x.slots[i].rec != 0 && x.slots[i].id != id {
		i = (i + 1) & mask
	}
	return i
}

// get returns the record index of id, or false when id is not active.
func (x *idIndex) get(id int) (int32, bool) {
	if x.n == 0 {
		return 0, false
	}
	s := x.slots[x.find(id)]
	return s.rec - 1, s.rec != 0
}

// put maps id to record ri, replacing an entry for id.
func (x *idIndex) put(id int, ri int32) {
	if 2*(x.n+1) > len(x.slots) {
		x.grow()
	}
	i := x.find(id)
	if x.slots[i].rec == 0 {
		x.n++
	}
	x.slots[i] = idSlot{id: id, rec: ri + 1}
}

// remove deletes id's entry, if any.
func (x *idIndex) remove(id int) {
	if x.n == 0 {
		return
	}
	i := x.find(id)
	if x.slots[i].rec == 0 {
		return
	}
	x.n--
	mask := len(x.slots) - 1
	for j := (i + 1) & mask; x.slots[j].rec != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless i lies before
		// its home on the run, cyclically.
		if (j-x.home(x.slots[j].id))&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = idSlot{}
}

// grow doubles the table and reinserts every entry.
func (x *idIndex) grow() {
	old := x.slots
	size := max(2*len(old), idIndexMinSize)
	x.slots = make([]idSlot, size)
	x.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.rec != 0 {
			x.slots[x.find(s.id)] = s
		}
	}
}

// check audits the table: at most half full, n counting its entries, and
// every entry found by a probe from its home, so no hole splits a run.
func (x *idIndex) check() error {
	if len(x.slots) != 0 && (len(x.slots)&(len(x.slots)-1) != 0 || 64-bits.TrailingZeros(uint(len(x.slots))) != int(x.shift)) {
		return fmt.Errorf("core: ID index of %d slots with hash shift %d", len(x.slots), x.shift)
	}
	k := 0
	for i, s := range x.slots {
		if s.rec == 0 {
			continue
		}
		k++
		if s.rec < 0 || x.find(s.id) != i {
			return fmt.Errorf("core: ID index holds request %d at slot %d, a probe finds slot %d", s.id, i, x.find(s.id))
		}
	}
	if k != x.n || 2*x.n > len(x.slots) {
		return fmt.Errorf("core: ID index holds %d entries in %d slots, counts %d", k, len(x.slots), x.n)
	}
	return nil
}
