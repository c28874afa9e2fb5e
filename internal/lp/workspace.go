package lp

import (
	"sync"
	"sync/atomic"
)

// Solve-workspace machinery. A Problem owns (at most) one workspace —
// the scratch memory of a simplex solve plus the factorization buffers —
// handed out atomically so concurrent Solve calls on one Problem stay
// safe (the loser of the swap simply allocates a fresh workspace). The
// repeated-solve paths this repo lives on — column-generation rounds,
// SLOTOFF per-slot re-optimizations, warm-started serve solves — reuse
// every buffer, so a steady-state solve allocates only its Solution.
//
// Everything here is allocation plumbing only: values written through
// reused buffers are bit-identical to the fresh-allocation code this
// replaces (reused memory is always fully overwritten, or explicitly
// zeroed where the old code relied on make's zeroing).

// growSlice returns b resized to length n, reusing its backing array
// when capacity allows. Contents beyond the old length are undefined —
// callers overwrite or zero as needed. Old contents (slice headers of
// inner scratch slices, notably) are preserved so nested buffers keep
// their capacity across grows.
func growSlice[T any](b []T, n int) []T {
	if cap(b) >= n {
		return b[:n]
	}
	nb := make([]T, n, n+n/2)
	copy(nb, b)
	return nb
}

// arena is a bump allocator for slices of T. take returns a zero-length
// slice with the requested capacity; reset recycles the block (sizing it
// to the previous round's total on overflow, so a steady-state round is
// a single block and zero allocations). Blocks abandoned by a mid-round
// grow stay reachable through the slices carved from them.
type arena[T any] struct {
	buf  []T
	off  int
	used int
}

func (a *arena[T]) reset() {
	if a.used > len(a.buf) {
		a.buf = make([]T, a.used+a.used/2)
	}
	a.off, a.used = 0, 0
}

func (a *arena[T]) take(n int) []T {
	a.used += n
	if a.off+n > len(a.buf) {
		sz := 2 * len(a.buf)
		if sz < n {
			sz = n
		}
		if sz < 1024 {
			sz = 1024
		}
		a.buf = make([]T, sz)
		a.off = 0
	}
	s := a.buf[a.off : a.off : a.off+n]
	a.off += n
	return s
}

// luWorkspace holds factorBasis's scratch memory, reused across
// refactorizations.
type luWorkspace struct {
	rows      [][]spEntry
	rowArena  arena[spEntry]
	rowActive []bool
	colActive []bool
	colRows   [][]int
	colMax    []float64
	colCnt    []int
	rowCnt    []int
	preCnt    []int
	seen      []int
	uposcol   []int
	colStep   []int

	// Pivot-search state: count buckets, the score-0 candidate heap, and
	// the stamp that seen is compared against.
	rowList, colList countLists
	heap, cands      []pivCand
	dropped          []int
	stamp            int

	// visits totals the matrix entries factorBasis has touched through
	// this workspace — its machine-independent cost, pinned by
	// TestPivotCountGuard.
	visits int
}

// workspace is the full per-solve scratch state. All slices are reused
// via growSlice; the two basisLU slots ping-pong so a refactorization
// can build the replacement factorization without disturbing the live
// one (which repair paths still read on failure).
type workspace struct {
	rhs, cost, lo, up []float64
	rowNeg            []float64
	cols              [][]Entry
	colArena          arena[Entry]
	status            []vstat
	xN, xB, act       []float64
	basis             []int
	slackOf           []int
	ybuf, cbbuf, rbuf []float64
	d                 []float64
	wbuf              []float64
	lim               []float64
	phase1Cost        []float64
	xbuf              []float64
	gamma             []float64
	rhobuf, unitbuf   []float64
	rowIdx            [][]rowEnt
	rowAlpha          []float64
	fw                luWorkspace
	lus               [2]*basisLU

	// onFactor, when set, sees every basis refactorize is about to
	// factor. Tests use it to replay the bases of a real solve through
	// the reference factorization; nothing sets it outside tests.
	onFactor func(m int, cols [][]Entry, basis []int)
	// onPrice, when set, sees the reduced costs before every pricing
	// scan, and once more when a scan proves optimality. Tests use it to
	// hold the maintained d to a from-scratch recompute; nothing sets it
	// outside tests.
	onPrice func(s *simplex, cost []float64, optimal bool)
}

// takeLU returns a basisLU slot distinct from cur, for refactorize to
// rebuild into.
func (ws *workspace) takeLU(cur *basisLU) *basisLU {
	for i := range ws.lus {
		if ws.lus[i] == nil {
			ws.lus[i] = new(basisLU)
		}
		if ws.lus[i] != cur {
			return ws.lus[i]
		}
	}
	return new(basisLU)
}

// reclaim stores the (possibly grown) solve buffers back into the
// workspace after a solve finishes, so the next solve reuses them.
func (ws *workspace) reclaim(s *simplex) {
	ws.rhs, ws.cost, ws.lo, ws.up = s.rhs, s.cost, s.lo, s.up
	ws.cols = s.cols
	ws.status = s.status
	ws.xN, ws.xB = s.xN, s.xB
	ws.basis = s.basis
	ws.slackOf = s.slackOf
	ws.ybuf, ws.cbbuf, ws.rbuf = s.ybuf, s.cbbuf, s.rbuf
	ws.d = s.d
	ws.gamma = s.gamma
	ws.rhobuf, ws.unitbuf = s.rhobuf, s.unitbuf
	ws.rowIdx = s.rowIdx
	ws.rowAlpha = s.rowAlpha
}

// wsPool recycles workspaces across Problem lifetimes. Short-lived
// problems (one column-generation master per plan build) otherwise pay
// the arena/buffer warm-up ladder from scratch every time; a pooled
// workspace arrives with its blocks already grown. Solutions never alias
// workspace memory (X, Dual and the basis snapshot are copied out), so
// recycling is invisible to callers.
var wsPool sync.Pool

// wsCache pins a single released workspace with a strong reference.
// sync.Pool alone loses its contents to any GC cycle, and a plan build
// allocates enough to trigger several — so back-to-back builds would
// each re-pay the warm-up despite the pool. One retained workspace (a
// few MB at the problem sizes of this repo) is the bounded price of
// making reuse reliable; overflow still goes through the pool.
var wsCache atomic.Pointer[workspace]

// takeWS claims the problem's workspace, a cached/pooled one, or a fresh
// one if another solve holds the problem's.
func (p *Problem) takeWS() *workspace {
	if ws := p.ws.Swap(nil); ws != nil {
		return ws
	}
	if ws := wsCache.Swap(nil); ws != nil {
		return ws
	}
	if ws, ok := wsPool.Get().(*workspace); ok {
		return ws
	}
	return &workspace{}
}

// putWS returns a workspace for the next solve.
func (p *Problem) putWS(ws *workspace) { p.ws.Store(ws) }

// ReleaseWorkspace hands the problem's solve workspace back to a shared
// cache for other Problems to reuse. Call it when the problem will not
// be solved again (e.g. a column-generation master going out of scope);
// the problem remains usable — a later solve simply re-acquires scratch
// memory from the cache.
func (p *Problem) ReleaseWorkspace() {
	ws := p.ws.Swap(nil)
	if ws == nil {
		return
	}
	if wsCache.CompareAndSwap(nil, ws) {
		return
	}
	wsPool.Put(ws)
}
