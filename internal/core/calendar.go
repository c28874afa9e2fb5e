package core

import (
	"fmt"
	"math"
)

// calendarSpan bounds the slots the calendar's ring covers ahead of its
// cursor. A departure further out waits on the far list.
const calendarSpan = 1 << 12

// calendarMinRing is the ring's size at its first push.
const calendarMinRing = 16

// calendar is the engine's departure queue: a calendar queue (Brown 1988,
// "Calendar queues", CACM) with one bucket per slot. An entry is a record
// index; each record is named by at most one pending entry (from ALLOCATE
// until the entry pops), so each bucket is a FIFO linked through the
// per-record next array and a push allocates nothing once the arrays have
// grown to the record table.
//
// Every pending entry departs after the cursor cur. The ring holds the
// entries for the slots in (cur, horizon], slot s in bucket s mod
// len(head), one slot per bucket since horizon ≤ cur + len(head). A push
// past the horizon doubles the ring, up to calendarSpan slots; beyond that
// it goes to the far list. The far list is swept into the ring, in its own
// order, whenever the horizon is moved over a slot, before any entry is
// pushed to that slot directly: so a slot's entries pop in push order,
// which is acceptance order.
type calendar struct {
	cur, horizon int
	head, tail   []int32 // per bucket; -1 for an empty bucket
	next         []int32 // per record: the entry after it in its bucket or on the far list
	at           []int   // per record: the slot of its pending entry
	ringLen      int     // pending entries in the ring
	pending      int     // pending entries, ring and far list

	farHead, farTail int32 // -1 for an empty far list
	farMin           int   // the earliest slot on the far list
}

func newCalendar() calendar {
	return calendar{farHead: -1, farTail: -1}
}

// push schedules record ri to depart at slot s > cur.
func (c *calendar) push(ri int32, s int) {
	for int(ri) >= len(c.next) {
		c.next = append(c.next, -1)
		c.at = append(c.at, 0)
	}
	c.at[ri] = s
	c.pending++
	if s > c.horizon && c.farHead < 0 {
		// No far entry can be overtaken: the horizon may move freely.
		if s-c.cur > len(c.head) && len(c.head) < calendarSpan {
			c.grow(s - c.cur)
		}
		c.setHorizon()
	}
	if s > c.horizon {
		c.link(&c.farHead, &c.farTail, ri)
		if c.farHead == ri || s < c.farMin {
			c.farMin = s
		}
		return
	}
	c.ringLen++
	b := s & (len(c.head) - 1)
	c.link(&c.head[b], &c.tail[b], ri)
}

// link appends ri to the FIFO with the given head and tail.
func (c *calendar) link(head, tail *int32, ri int32) {
	c.next[ri] = -1
	if *head < 0 {
		*head = ri
	} else {
		c.next[*tail] = ri
	}
	*tail = ri
}

// setHorizon moves the horizon as far as the ring reaches.
func (c *calendar) setHorizon() {
	c.horizon = c.cur + min(len(c.head), math.MaxInt-c.cur)
}

// grow doubles the ring until it covers span slots past the cursor, or
// calendarSpan. Each bucket holds a single slot, so it moves whole.
func (c *calendar) grow(span int) {
	n := max(len(c.head), calendarMinRing)
	for n < span && n < calendarSpan {
		n *= 2
	}
	head, tail := make([]int32, n), make([]int32, n)
	for i := range head {
		head[i], tail[i] = -1, -1
	}
	for i, h := range c.head {
		if h >= 0 {
			b := c.at[h] & (n - 1)
			head[b], tail[b] = h, c.tail[i]
		}
	}
	c.head, c.tail = head, tail
}

// pop returns the next entry due at or before slot t, or -1 when none is
// left; then the cursor is at t. Entries pop in slot order and within a
// slot in push order. Empty stretches are jumped over: with the ring empty
// the cursor goes straight to t or to the far list's earliest slot, so it
// steps at most one ring's length between two entries, however many slots
// the drain spans.
func (c *calendar) pop(t int) int32 {
	for c.cur < t {
		if c.ringLen == 0 {
			if c.farHead < 0 || c.farMin > t {
				c.cur = t
				break
			}
			c.cur = c.farMin - 1
			c.sweep()
			continue
		}
		b := (c.cur + 1) & (len(c.head) - 1)
		if ri := c.head[b]; ri >= 0 {
			c.head[b] = c.next[ri]
			c.ringLen--
			c.pending--
			return ri
		}
		c.cur++
	}
	// Far entries lie past the horizon, so the ring empties before the
	// cursor reaches them; sweeping once the drain is done keeps the ring
	// ahead of the pushes that follow.
	if c.farHead >= 0 && c.horizon-c.cur < len(c.head)/2 {
		c.sweep()
	}
	return -1
}

// sweep moves the horizon as far as the ring reaches and the far entries
// it passes into their buckets, keeping the far list's order. A drain
// runs it when it jumps to the far list, or when it leaves the cursor past
// half the ring since the horizon last moved, so a far entry is walked
// O(1 + duration/calendarSpan) times.
func (c *calendar) sweep() {
	c.setHorizon()
	ri := c.farHead
	c.farHead, c.farTail = -1, -1
	for ri >= 0 {
		nx := c.next[ri]
		if s := c.at[ri]; s <= c.horizon {
			c.ringLen++
			b := s & (len(c.head) - 1)
			c.link(&c.head[b], &c.tail[b], ri)
		} else {
			c.link(&c.farHead, &c.farTail, ri)
			if c.farHead == ri || s < c.farMin {
				c.farMin = s
			}
		}
		ri = nx
	}
}

// check audits the calendar's structure and counts in named the entries
// naming each record: every ring entry lies in (cur, horizon] in its
// slot's bucket, every far entry past the horizon, farMin is the far
// list's earliest slot, each tail ends its list, and the counts add up.
func (c *calendar) check(named []int) error {
	if len(c.head) > 0 && c.horizon-c.cur > len(c.head) {
		return fmt.Errorf("core: calendar horizon %d is more than a ring of %d past slot %d", c.horizon, len(c.head), c.cur)
	}
	seen := 0
	walk := func(head, tail int32, inRing func(s int) bool) error {
		last := int32(-1)
		for ri := head; ri >= 0; ri = c.next[ri] {
			if seen++; seen > c.pending || int(ri) >= len(named) {
				return fmt.Errorf("core: calendar lists record %d as entry %d of %d pending", ri, seen, c.pending)
			}
			named[ri]++
			if !inRing(c.at[ri]) {
				return fmt.Errorf("core: calendar entry at slot %d misplaced (cursor %d, horizon %d)", c.at[ri], c.cur, c.horizon)
			}
			last = ri
		}
		if last != tail && head >= 0 {
			return fmt.Errorf("core: calendar list ends at record %d, its tail is %d", last, tail)
		}
		return nil
	}
	for b, h := range c.head {
		if err := walk(h, c.tail[b], func(s int) bool {
			return s > c.cur && s <= c.horizon && s&(len(c.head)-1) == b
		}); err != nil {
			return err
		}
	}
	if seen != c.ringLen {
		return fmt.Errorf("core: calendar ring holds %d entries, counts %d", seen, c.ringLen)
	}
	if c.farHead >= 0 && len(c.head) != calendarSpan {
		return fmt.Errorf("core: calendar uses its far list with a ring of %d", len(c.head))
	}
	earliest := math.MaxInt
	if err := walk(c.farHead, c.farTail, func(s int) bool {
		earliest = min(earliest, s)
		return s > c.horizon
	}); err != nil {
		return err
	}
	if c.farHead >= 0 && earliest != c.farMin {
		return fmt.Errorf("core: calendar far list starts at slot %d, records %d", earliest, c.farMin)
	}
	if seen != c.pending {
		return fmt.Errorf("core: calendar holds %d entries, counts %d", seen, c.pending)
	}
	return nil
}
