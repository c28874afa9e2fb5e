package lp

import "math"

// This file implements the sparse linear algebra behind the revised
// simplex: an LU factorization of the m×m basis matrix with Markowitz
// pivot ordering under threshold partial pivoting, forward/backward
// solves (FTRAN/BTRAN), and a Forrest–Tomlin update in the sparse form
// of Suhl & Suhl (1993), so a pivot costs about its spike plus one row
// of U instead of a refactorization. The factorization also *reports*
// rank deficiency instead of failing: a dependent basis can be repaired
// (see simplex.repairBasis) rather than aborting the solve.
//
// B = L·U up to permutations. U's rows and columns are both keyed by
// elimination step ("slot"): slot k pairs matrix row prow[k] with basis
// position pcol[k], and U is upper triangular in the order the slots
// stand in order[]. A pivot that replaces the basis column at position
// pcol[p] keeps that pairing — the entering column takes the same
// position and row — so the update rewrites column p of U, eliminates
// row p into one row eta, and moves slot p to the end of order[]; no
// other slot is renumbered.

// spEntry is one nonzero of a sparse vector.
type spEntry struct {
	idx int
	val float64
}

// Factorization tolerances and update policy.
const (
	// luPivotTol is the absolute magnitude below which a candidate pivot
	// is treated as zero; a column whose remaining entries are all below
	// it is reported as dependent.
	luPivotTol = 1e-10
	// luThreshold is the Markowitz threshold u: an entry qualifies as a
	// pivot only if |a_ij| ≥ u·max|a_·j|, trading a bounded growth factor
	// for sparsity in the usual way.
	luThreshold = 0.1
	// maxUpdates bounds the Forrest–Tomlin updates between
	// refactorizations. Each one adds a row eta to every FTRAN and BTRAN
	// and may add fill to U; past this many a refactorization costs less
	// than the longer solves, and it contains drift.
	maxUpdates = 128
	// updateWeakTol flags an update whose pivot is small relative to the
	// spike's largest entry — the classic trigger for inverse drift and
	// the root cause of the "singular basis during refactorization"
	// failures the dense code hit.
	updateWeakTol = 1e-9
	// ftStabTol is the Forrest–Tomlin stability test. The updated
	// diagonal must equal w_r times the replaced one, where w_r is the
	// pivot of the entering column's FTRAN image (det B' = w_r·det B);
	// a larger relative gap means the update lost accuracy. The two
	// agree within 1e-12 on every update of the seed-4 fixture solve.
	ftStabTol = 1e-12
	// ftGrowthTol bounds the growth of the eliminated row: an entry of
	// it that grows past this times the row's largest entry (diagonal
	// included) puts that growth times the rounding error into the row
	// eta. Row etas are not pivoted, so nothing else bounds it.
	ftGrowthTol = 1e3
)

// segLists keeps n variable-length lists in one backing array: list k
// is data[beg[k]:end[k]] with room up to lim[k]. A push onto a full list
// moves it to the end of data with twice the room, so U can shrink and
// grow between refactorizations without allocating once data has grown
// to the size a solve needs.
type segLists[T any] struct {
	beg, end, lim []int
	data          []T
}

func (s *segLists[T]) list(k int) []T { return s.data[s.beg[k]:s.end[k]] }

func (s *segLists[T]) push(k int, x T) {
	if s.end[k] == s.lim[k] {
		n := s.end[k] - s.beg[k]
		b := len(s.data)
		s.data = growSlice(s.data, b+2*n+4)
		copy(s.data[b:], s.data[s.beg[k]:s.end[k]])
		s.beg[k], s.end[k], s.lim[k] = b, b+n, len(s.data)
	}
	s.data[s.end[k]] = x
	s.end[k]++
}

// basisLU is a sparse LU factorization of the basis, B = Pᵀ·L·U·Q with P
// the row permutation (prow) and Q the basis-position permutation (pcol),
// kept current across pivots by Forrest–Tomlin updates.
type basisLU struct {
	m int

	prow    []int // prow[k]: matrix row of slot k
	pcol    []int // pcol[k]: basis position of slot k
	rowStep []int // inverse of prow
	posStep []int // inverse of pcol

	// L as multiplier ops in elimination order: op t (for lstart[k] ≤ t <
	// lstart[k+1]) subtracts lmult[t]·(pivot row k) from row lrow[t].
	// L is fixed between refactorizations.
	lstart []int
	lrow   []int
	lmult  []float64

	// U by slot: row k holds udiag[k] on the diagonal and the
	// off-diagonal entries u.list(k), each (slot of its column, value);
	// ucols.list(c) names the rows that hold (or held — rows cleared by
	// an update are not struck from it) an entry in column c.
	u     segLists[spEntry]
	ucols segLists[int]
	udiag []float64
	unnz  int // live off-diagonal entries of U
	unnz0 int // unnz at the refactorization

	// order lists the slots in U's triangular order; opos is its inverse.
	order, opos []int

	// Row etas of the updates since the refactorization: eta i replaces
	// slot rpiv[i]'s entry v_p by v_p − Σ f·v_j over (j, f) in
	// rent[rstart[i]:rstart[i+1]].
	rpiv   []int
	rstart []int
	rent   []spEntry
	nupd   int // updates since the refactorization

	// spike is the last ftranCol's L⁻¹·a after the row etas, by slot:
	// the column update writes into U.
	spike []float64
	ywork []float64 // scratch, matrix-row space
	zwork []float64 // scratch, slot space
	dwork []float64 // update's row scratch, slot space; all zero between updates

	// updEntries totals the U and row-eta entries update has touched —
	// its machine-independent cost, pinned by BenchmarkBasisUpdate.
	updEntries int
}

// reset prepares lu to be refilled by factorBasis, reusing every buffer.
func (lu *basisLU) reset(m int) {
	lu.m = m
	lu.prow = lu.prow[:0]
	lu.pcol = lu.pcol[:0]
	lu.lstart = append(lu.lstart[:0], 0)
	lu.lrow = lu.lrow[:0]
	lu.lmult = lu.lmult[:0]
	lu.u.beg = lu.u.beg[:0]
	lu.u.end = lu.u.end[:0]
	lu.u.data = lu.u.data[:0]
	lu.udiag = lu.udiag[:0]
	lu.rpiv = lu.rpiv[:0]
	lu.rstart = append(lu.rstart[:0], 0)
	lu.rent = lu.rent[:0]
	lu.nupd = 0
}

// factorBasis factors the basis given by cols[basis[0..m-1]] into lu,
// using ws for all scratch memory. On success it reports ok and nil
// slices. If the basis is numerically rank-deficient it reports !ok plus
// the dependent basis positions and the rows left unpivoted — aligned
// sets the caller can repair by substituting each position with a
// logical (slack or artificial) column of one of the rows.
//
// The pivot of each elimination step is the admissible entry (|a| ≥
// luPivotTol and |a| ≥ luThreshold·max|a_·j|) minimizing the Markowitz
// fill-in bound (r−1)(c−1) over the active submatrix; ties go to the
// larger magnitude, then the lower row, then the lower basis position.
// That order is a contract — L, U and every solve downstream are
// bit-reproducible functions of it — and it is found without rescanning
// the submatrix: row and column counts and column maxima are kept up to
// date incrementally (only the columns of the pivot row and the rows
// just eliminated can change), score-0 candidates sit in a heap ordered
// by the tie-break, and everything else is searched by count bucket.
//
//olive:hotpath one call per 64 pivots of every solve
func factorBasis(ws *luWorkspace, lu *basisLU, m int, cols [][]Entry, basis []int) (ok bool, depPos, depRows []int) {
	// Working rows: rows[i] holds (basis position, value), sorted by
	// position. Every loop below iterates deterministically — factor
	// results must be bit-reproducible run to run.
	ws.preCnt = growSlice(ws.preCnt, m)
	for i := 0; i < m; i++ {
		ws.preCnt[i] = 0
	}
	for _, j := range basis {
		for _, e := range cols[j] {
			ws.preCnt[e.Row]++
		}
	}
	ws.rowArena.reset()
	ws.rows = growSlice(ws.rows, m)
	rows := ws.rows
	for i := 0; i < m; i++ {
		rows[i] = ws.rowArena.take(ws.preCnt[i])
	}
	for pos, j := range basis {
		for _, e := range cols[j] {
			rows[e.Row] = append(rows[e.Row], spEntry{pos, e.Coef})
		}
	}
	for i := 0; i < m; i++ {
		sortEntries(rows[i])
	}
	ws.rowActive = growSlice(ws.rowActive, m)
	ws.colActive = growSlice(ws.colActive, m)
	rowActive, colActive := ws.rowActive, ws.colActive
	for i := 0; i < m; i++ {
		rowActive[i], colActive[i] = true, true
	}
	// colRows[c] lists rows that (may) hold an entry in position c:
	// fill-in appends, cancellation leaves stale entries that are
	// re-validated at use. Its order is the order of the L ops of the
	// step that pivots on c.
	ws.colRows = growSlice(ws.colRows, m)
	colRows := ws.colRows
	for c := 0; c < m; c++ {
		colRows[c] = colRows[c][:0]
	}
	for i := 0; i < m; i++ {
		for _, e := range rows[i] {
			colRows[e.idx] = append(colRows[e.idx], i)
		}
	}

	lu.reset(m)

	// Counts and column maxima over the active submatrix — all of it, to
	// begin with — the count buckets, and the score-0 heap.
	ws.colMax = growSlice(ws.colMax, m)
	ws.colCnt = growSlice(ws.colCnt, m)
	ws.rowCnt = growSlice(ws.rowCnt, m)
	ws.seen = growSlice(ws.seen, m)
	colMax, colCnt, rowCnt := ws.colMax, ws.colCnt, ws.rowCnt
	seen := ws.seen // visit stamps for walks over colRows
	for i := 0; i < m; i++ {
		seen[i] = -1
		colMax[i], colCnt[i] = 0, 0
	}
	ws.stamp = 0
	ws.rowList.reset(m)
	ws.colList.reset(m)
	ws.heap = ws.heap[:0]
	ws.dropped = ws.dropped[:0]
	for i := 0; i < m; i++ {
		rowCnt[i] = len(rows[i])
		ws.rowList.link(i, rowCnt[i])
		for _, e := range rows[i] {
			colCnt[e.idx]++
			if a := math.Abs(e.val); a > colMax[e.idx] {
				colMax[e.idx] = a
			}
		}
		ws.visits += 2 * len(rows[i]) // this loop and the seeding below
	}
	activeCols := m
	for c := 0; c < m; c++ {
		ws.colList.link(c, colCnt[c])
		// Columns with no usable pivot are dependent: report, drop, and
		// keep factoring the rest so one pass finds the whole deficiency.
		if colMax[c] < luPivotTol {
			depPos = append(depPos, c)
			ws.dropCol(c)
			activeCols--
		}
	}
	for i := 0; i < m; i++ {
		for _, e := range rows[i] {
			if rowCnt[i] == 1 || colCnt[e.idx] == 1 {
				ws.offer(i, e.idx, math.Abs(e.val))
			}
		}
	}

	for activeCols > 0 {
		step := len(lu.prow)
		pivRowI, pivColI := ws.pickPivot()
		// Unreachable in principle (every live column's max qualifies),
		// but guard against it becoming an infinite loop.
		if pivRowI < 0 {
			for c := 0; c < m; c++ {
				if colActive[c] {
					colActive[c] = false
					depPos = append(depPos, c)
				}
			}
			break
		}
		ws.settleDropped()

		lu.prow = append(lu.prow, pivRowI)
		lu.pcol = append(lu.pcol, pivColI)
		pivRow := rows[pivRowI]
		pivVal := entryVal(pivRow, pivColI)

		// Eliminate position pivColI from every other active row holding
		// it, recording the multipliers as L ops of step k.
		ws.stamp++
		for _, i := range colRows[pivColI] {
			if i == pivRowI || !rowActive[i] || seen[i] == ws.stamp {
				continue
			}
			seen[i] = ws.stamp
			v, ok := entryLookup(rows[i], pivColI)
			if !ok {
				continue // stale colRows entry
			}
			f := v / pivVal
			lu.lrow = append(lu.lrow, i)
			lu.lmult = append(lu.lmult, f)
			rows[i] = rowSub(&ws.rowArena, rows[i], pivRow, f, pivColI, colRows, i)
		}
		lu.lstart = append(lu.lstart, len(lu.lrow))

		lu.recordURow(pivRow, pivColI, pivVal)

		rowActive[pivRowI] = false
		colActive[pivColI] = false
		activeCols--
		ws.rowList.unlink(pivRowI, rowCnt[pivRowI])
		ws.colList.unlink(pivColI, colCnt[pivColI])

		// Only the rows just eliminated and the columns of the pivot row
		// changed. Rows first: the column pass reads their fresh counts.
		for _, i := range lu.lrow[lu.lstart[step]:] {
			ws.recountRow(i)
		}
		for _, e := range pivRow {
			c := e.idx
			if !colActive[c] {
				continue
			}
			ws.recountCol(c)
			if colMax[c] < luPivotTol {
				depPos = append(depPos, c)
				ws.dropCol(c)
				activeCols--
			}
		}
	}

	if len(depPos) > 0 {
		for i := 0; i < m; i++ {
			if rowActive[i] {
				depRows = append(depRows, i)
			}
		}
		return false, depPos, depRows
	}
	lu.finish()
	return true, nil, nil
}

// recordURow appends the U row of the step just pivoted on (pivCol,
// pivVal) of row: its off-diagonal entries, in basis-position space
// until finish maps them to slots.
func (lu *basisLU) recordURow(row []spEntry, pivCol int, pivVal float64) {
	lu.udiag = append(lu.udiag, pivVal)
	lu.u.beg = append(lu.u.beg, len(lu.u.data))
	for _, e := range row {
		if e.idx != pivCol {
			lu.u.data = append(lu.u.data, e)
		}
	}
	lu.u.end = append(lu.u.end, len(lu.u.data))
}

// finish completes a full-rank factorization: the permutation inverses,
// U's column slots and column lists, the identity order, and the
// solves' scratch.
func (lu *basisLU) finish() {
	m := lu.m
	lu.rowStep = growSlice(lu.rowStep, m)
	lu.posStep = growSlice(lu.posStep, m)
	for k, r := range lu.prow {
		lu.rowStep[r] = k
	}
	for k, c := range lu.pcol {
		lu.posStep[c] = k
	}
	u, uc := &lu.u, &lu.ucols
	u.lim = append(u.lim[:0], u.end...)
	uc.beg = growSlice(uc.beg, m)
	uc.end = growSlice(uc.end, m)
	uc.lim = growSlice(uc.lim, m)
	for c := range uc.end {
		uc.end[c] = 0
	}
	for t := range u.data {
		c := lu.posStep[u.data[t].idx]
		u.data[t].idx = c
		uc.end[c]++
	}
	n := 0
	for c := range uc.end {
		uc.beg[c] = n
		n += uc.end[c]
		uc.lim[c], uc.end[c] = n, uc.beg[c]
	}
	uc.data = growSlice(uc.data, n)
	for k := 0; k < m; k++ {
		for _, e := range u.list(k) {
			uc.data[uc.end[e.idx]] = k
			uc.end[e.idx]++
		}
	}
	lu.unnz, lu.unnz0 = len(u.data), len(u.data)
	lu.order = growSlice(lu.order, m)
	lu.opos = growSlice(lu.opos, m)
	lu.dwork = growSlice(lu.dwork, m)
	for k := 0; k < m; k++ {
		lu.order[k], lu.opos[k], lu.dwork[k] = k, k, 0
	}
	lu.spike = growSlice(lu.spike, m)
	lu.ywork = growSlice(lu.ywork, m)
	lu.zwork = growSlice(lu.zwork, m)
}

// pivCand is a pivot candidate: an active entry and its magnitude.
type pivCand struct {
	a        float64
	row, col int
}

// before is factorBasis's tie-break among candidates of equal Markowitz
// score: larger magnitude, then lower row, then lower basis position.
func (x pivCand) before(y pivCand) bool {
	if x.a != y.a {
		return x.a > y.a
	}
	if x.row != y.row {
		return x.row < y.row
	}
	return x.col < y.col
}

// countLists threads the active rows (or columns) of a factorization
// onto doubly linked lists by active-entry count, so a Markowitz search
// visits the rows and columns of one count without scanning the rest.
type countLists struct {
	head, next, prev []int
}

func (b *countLists) reset(m int) {
	b.head = growSlice(b.head, m+1)
	b.next = growSlice(b.next, m)
	b.prev = growSlice(b.prev, m)
	for k := range b.head {
		b.head[k] = -1
	}
}

func (b *countLists) link(i, k int) {
	h := b.head[k]
	b.next[i], b.prev[i] = h, -1
	if h >= 0 {
		b.prev[h] = i
	}
	b.head[k] = i
}

func (b *countLists) unlink(i, k int) {
	n, p := b.next[i], b.prev[i]
	if p >= 0 {
		b.next[p] = n
	} else {
		b.head[k] = n
	}
	if n >= 0 {
		b.prev[n] = p
	}
}

// pickPivot returns this step's pivot, or (-1, -1) if no active entry
// is admissible. Score-0 candidates come off the heap, which is ordered
// by the tie-break; stale heap items (the entry changed, or lost its
// singleton row/column or its admissibility, since it was offered) are
// discarded — whatever change made them stale re-offered the entry if
// it still qualified. Otherwise rows and columns are searched by count
// k = 2, 3, …: once those of count ≤ k are done every unseen entry
// scores at least k², so the search stops when k² exceeds the best score
// — strictly, because an equal score can still win the tie-break.
func (ws *luWorkspace) pickPivot() (row, col int) {
	for len(ws.heap) > 0 {
		top := ws.popHeap()
		ws.visits++
		if !ws.rowActive[top.row] || !ws.colActive[top.col] {
			continue
		}
		if ws.rowCnt[top.row] != 1 && ws.colCnt[top.col] != 1 {
			continue
		}
		if v, ok := entryLookup(ws.rows[top.row], top.col); !ok || math.Abs(v) != top.a {
			continue
		}
		if ws.admissible(top.col, top.a) {
			return top.row, top.col
		}
	}
	best, bestScore := pivCand{row: -1, col: -1}, math.MaxInt
	for k := 2; k <= len(ws.rows) && (k-1)*(k-1) <= bestScore; k++ {
		// Rows of count k. Their entries in columns of a lower count
		// were seen from the column side of an earlier round.
		for i := ws.rowList.head[k]; i >= 0; i = ws.rowList.next[i] {
			ws.visits += len(ws.rows[i])
			for _, e := range ws.rows[i] {
				c := e.idx
				if !ws.colActive[c] || ws.colCnt[c] < k {
					continue
				}
				a := math.Abs(e.val)
				if !ws.admissible(c, a) {
					continue
				}
				cand, score := pivCand{a, i, c}, (k-1)*(ws.colCnt[c]-1)
				if score < bestScore || (score == bestScore && cand.before(best)) {
					best, bestScore = cand, score
				}
			}
		}
		// Columns of count k: what is left of them lies in rows of a
		// higher count, so nothing here scores below k(k−1). The score is
		// known before the entry is, which spares most of the lookups.
		if (k-1)*k > bestScore {
			continue
		}
		for c := ws.colList.head[k]; c >= 0; c = ws.colList.next[c] {
			ws.visits += len(ws.colRows[c])
			for _, i := range ws.colRows[c] {
				score := (ws.rowCnt[i] - 1) * (k - 1)
				if !ws.rowActive[i] || ws.rowCnt[i] <= k || score > bestScore {
					continue
				}
				v, ok := entryLookup(ws.rows[i], c)
				if !ok {
					continue // stale colRows entry
				}
				a := math.Abs(v)
				if !ws.admissible(c, a) {
					continue
				}
				if cand := (pivCand{a, i, c}); score < bestScore || cand.before(best) {
					best, bestScore = cand, score
				}
			}
		}
	}
	return best.row, best.col
}

// admissible reports whether an entry of magnitude a in column c may be
// a pivot: not negligible, and within the threshold of the column's
// current maximum.
func (ws *luWorkspace) admissible(c int, a float64) bool {
	return !(a < luPivotTol || a < luThreshold*ws.colMax[c])
}

// offer pushes entry (i, c) of magnitude a onto the score-0 heap if it
// is admissible.
func (ws *luWorkspace) offer(i, c int, a float64) {
	if !ws.admissible(c, a) {
		return
	}
	h := append(ws.heap, pivCand{a, i, c})
	for k := len(h) - 1; k > 0; {
		p := (k - 1) / 2
		if !h[k].before(h[p]) {
			break
		}
		h[k], h[p] = h[p], h[k]
		k = p
	}
	ws.heap = h
}

func (ws *luWorkspace) popHeap() pivCand {
	h := ws.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for k := 0; ; {
		l, r, s := 2*k+1, 2*k+2, k
		if l < n && h[l].before(h[s]) {
			s = l
		}
		if r < n && h[r].before(h[s]) {
			s = r
		}
		if s == k {
			break
		}
		h[k], h[s] = h[s], h[k]
		k = s
	}
	ws.heap = h
	return top
}

// setRowCnt moves row i to the bucket of its new count and, if it became
// a singleton, offers its one active entry.
func (ws *luWorkspace) setRowCnt(i, n int) {
	if n != ws.rowCnt[i] {
		ws.rowList.unlink(i, ws.rowCnt[i])
		ws.rowList.link(i, n)
		ws.rowCnt[i] = n
	}
	if n != 1 {
		return
	}
	for _, e := range ws.rows[i] {
		if ws.colActive[e.idx] {
			ws.offer(i, e.idx, math.Abs(e.val))
			return
		}
	}
}

// recountRow recounts the active entries of a row that was just
// eliminated.
func (ws *luWorkspace) recountRow(i int) {
	n := 0
	for _, e := range ws.rows[i] {
		if ws.colActive[e.idx] {
			n++
		}
	}
	ws.visits += len(ws.rows[i])
	ws.setRowCnt(i, n)
}

// recountCol recomputes the count and maximum of column c over the
// active rows and offers the score-0 entries it finds. On the way it
// compacts colRows[c], dropping rows already pivoted and repeated
// listings. A listed active row that holds no entry right now stays
// where it is: fill-in may revive the entry, and the row's first
// listing fixes its place among the L ops of the step that pivots on c.
func (ws *luWorkspace) recountCol(c int) {
	ws.stamp++
	ws.visits += len(ws.colRows[c])
	keep := ws.colRows[c][:0]
	ws.cands = ws.cands[:0]
	n, mx := 0, 0.0
	var last pivCand // the column's one entry, if n ends up 1
	for _, i := range ws.colRows[c] {
		if !ws.rowActive[i] || ws.seen[i] == ws.stamp {
			continue
		}
		ws.seen[i] = ws.stamp
		keep = append(keep, i)
		v, ok := entryLookup(ws.rows[i], c)
		if !ok {
			continue
		}
		n++
		last = pivCand{math.Abs(v), i, c}
		if last.a > mx {
			mx = last.a
		}
		if ws.rowCnt[i] == 1 {
			ws.cands = append(ws.cands, last)
		}
	}
	ws.colRows[c] = keep
	if n != ws.colCnt[c] {
		ws.colList.unlink(c, ws.colCnt[c])
		ws.colList.link(c, n)
		ws.colCnt[c] = n
	}
	ws.colMax[c] = mx
	if n == 1 {
		ws.offer(last.row, c, last.a)
		return
	}
	for _, s := range ws.cands {
		ws.offer(s.row, c, s.a)
	}
}

// dropCol retires a dependent column. The rows holding its entries keep
// counting them until settleDropped.
func (ws *luWorkspace) dropCol(c int) {
	ws.colActive[c] = false
	ws.colList.unlink(c, ws.colCnt[c])
	ws.dropped = append(ws.dropped, c)
}

// settleDropped takes the entries of the columns dropped before this
// step's pivot search out of their rows' counts. It runs after the
// search on purpose: the scan this search replaces counted rows before
// it dropped dependent columns, so the step that drops a column still
// scores its rows with the dropped entries included, and which rows end
// up unpivoted (depRows) depends on that.
func (ws *luWorkspace) settleDropped() {
	for _, c := range ws.dropped {
		ws.visits += len(ws.colRows[c])
		for _, i := range ws.colRows[c] { // no repeats: recountCol just compacted it
			if !ws.rowActive[i] {
				continue
			}
			if _, ok := entryLookup(ws.rows[i], c); ok {
				ws.setRowCnt(i, ws.rowCnt[i]-1)
			}
		}
	}
	ws.dropped = ws.dropped[:0]
}

// sortEntries sorts a sparse row by position (insertion sort: rows are
// short and nearly sorted).
func sortEntries(r []spEntry) {
	for i := 1; i < len(r); i++ {
		for j := i; j > 0 && r[j].idx < r[j-1].idx; j-- {
			r[j], r[j-1] = r[j-1], r[j]
		}
	}
}

// entryVal returns the value at position c of a sorted sparse row
// (which must be present).
func entryVal(r []spEntry, c int) float64 {
	v, _ := entryLookup(r, c)
	return v
}

// entryLookup binary-searches a sorted sparse row for position c.
func entryLookup(r []spEntry, c int) (float64, bool) {
	lo, hi := 0, len(r)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case r[mid].idx < c:
			lo = mid + 1
		case r[mid].idx > c:
			hi = mid
		default:
			return r[mid].val, true
		}
	}
	return 0, false
}

// rowSub returns dst − f·src, skipping position skip (which cancels
// exactly) and dropping exact zeros; every position newly introduced
// into the row is recorded in colRows under fillRow. The output row is
// carved from the factorization arena.
func rowSub(a *arena[spEntry], dst, src []spEntry, f float64, skip int, colRows [][]int, fillRow int) []spEntry {
	out := a.take(len(dst) + len(src))
	i, j := 0, 0
	for i < len(dst) || j < len(src) {
		switch {
		case j >= len(src) || (i < len(dst) && dst[i].idx < src[j].idx):
			if dst[i].idx != skip {
				out = append(out, dst[i])
			}
			i++
		case i >= len(dst) || src[j].idx < dst[i].idx:
			if src[j].idx != skip {
				if v := -f * src[j].val; v != 0 {
					out = append(out, spEntry{src[j].idx, v})
					colRows[src[j].idx] = append(colRows[src[j].idx], fillRow)
				}
			}
			j++
		default: // same position
			if dst[i].idx != skip {
				if v := dst[i].val - f*src[j].val; v != 0 {
					out = append(out, spEntry{dst[i].idx, v})
				}
			}
			i++
			j++
		}
	}
	return out
}

// ftranCol solves B·w = a for a sparse column a, leaving w (length m,
// basis-position space) fully overwritten. It keeps a's spike for the
// update that follows if a enters the basis.
//
//olive:hotpath inner simplex kernel
func (lu *basisLU) ftranCol(col []Entry, w []float64) {
	y := lu.ywork
	for i := range y {
		y[i] = 0
	}
	for _, e := range col {
		y[e.Row] = e.Coef
	}
	lu.ftranWork(lu.spike, w)
}

// ftranDense solves B·w = rhs for a dense right-hand side in matrix-row
// space. rhs is not modified.
//
//olive:hotpath inner simplex kernel
func (lu *basisLU) ftranDense(rhs []float64, w []float64) {
	copy(lu.ywork, rhs)
	lu.ftranWork(lu.zwork, w)
}

// ftranWork completes an FTRAN whose right-hand side has been loaded
// into ywork: L solve, the row etas into s (slot space), then U
// back-substitution in order and the permutation to basis positions.
//
//olive:hotpath inner simplex kernel
func (lu *basisLU) ftranWork(s, w []float64) {
	y := lu.ywork
	m := lu.m
	for k := 0; k < m; k++ {
		v := y[lu.prow[k]]
		if v == 0 {
			continue
		}
		for t := lu.lstart[k]; t < lu.lstart[k+1]; t++ {
			y[lu.lrow[t]] -= lu.lmult[t] * v
		}
	}
	for k, r := range lu.prow {
		s[k] = y[r]
	}
	for i, p := range lu.rpiv {
		v := s[p]
		for _, e := range lu.rent[lu.rstart[i]:lu.rstart[i+1]] {
			v -= e.val * s[e.idx]
		}
		s[p] = v
	}
	z := y // y is spent: reuse it for U's solution, by slot
	for idx := m - 1; idx >= 0; idx-- {
		k := lu.order[idx]
		v := s[k]
		for _, e := range lu.u.list(k) {
			v -= e.val * z[e.idx]
		}
		z[k] = v / lu.udiag[k]
	}
	for k, pos := range lu.pcol {
		w[pos] = z[k]
	}
}

// btran solves Bᵀ·y = c for c in basis-position space (c[i] pairs with
// the basis column at position i), leaving y in matrix-row space. c is
// not modified.
//
//olive:hotpath inner simplex kernel
func (lu *basisLU) btran(c []float64, y []float64) {
	m := lu.m
	v := lu.zwork
	for k, pos := range lu.pcol {
		v[k] = c[pos]
	}
	// Uᵀ·v = c̄ (forward in order, scattering each resolved v[k] into the
	// slots after it).
	for _, k := range lu.order {
		vk := v[k] / lu.udiag[k]
		v[k] = vk
		if vk == 0 {
			continue
		}
		for _, e := range lu.u.list(k) {
			v[e.idx] -= e.val * vk
		}
	}
	// Row etas, reversed and transposed.
	for i := len(lu.rpiv) - 1; i >= 0; i-- {
		vp := v[lu.rpiv[i]]
		if vp == 0 {
			continue
		}
		for _, e := range lu.rent[lu.rstart[i]:lu.rstart[i+1]] {
			v[e.idx] -= e.val * vp
		}
	}
	// L̄ᵀ·t = v (backward; ops of step k reference rows pivoted later, so
	// the in-place sweep reads only finalized values).
	for k := m - 1; k >= 0; k-- {
		s := v[k]
		for t := lu.lstart[k]; t < lu.lstart[k+1]; t++ {
			s -= lu.lmult[t] * v[lu.rowStep[lu.lrow[t]]]
		}
		v[k] = s
	}
	for k := 0; k < m; k++ {
		y[lu.prow[k]] = v[k]
	}
}

// nUpdates reports how many pivot updates have accumulated since the
// last refactorization.
func (lu *basisLU) nUpdates() int { return lu.nupd }

// update folds into the factorization a pivot that replaces basis
// position r by the column whose FTRAN image w the last ftranCol
// computed (Forrest–Tomlin, in the sparse form of Suhl & Suhl). Slot p
// of position r gets the saved spike as its column of U; row p's
// off-diagonal entries are eliminated against the rows after it, whose
// multipliers become one row eta; and slot p moves to the end of order.
// The work is the spike, row p with its fill, column p's old rows and
// O(m) of order bookkeeping.
//
// It reports whether the factorization is still healthy; false asks
// the caller to refactorize now, before any solve. False means: the
// update limit is reached, the pivot is weak relative to the spike (it
// would poison every later solve), the new diagonal fails the
// stability test, eliminating row p grew it more than ftGrowthTol-fold,
// or U and the row etas have filled in past twice U's size at the
// refactorization.
func (lu *basisLU) update(r int, w []float64) bool {
	if lu.nupd+1 >= maxUpdates {
		return false
	}
	piv := w[r]
	maxw := 0.0
	for _, v := range w {
		if a := math.Abs(v); a > maxw {
			maxw = a
		}
	}
	if !(math.Abs(piv) > updateWeakTol*maxw) {
		return false
	}
	p := lu.posStep[r]
	s, dw := lu.spike, lu.dwork

	// Eliminate row p against the rows after it, in order. Their entries
	// lie after them, so a sweep of order meets every fill in time.
	row := lu.u.list(p)
	rowMax := math.Abs(lu.udiag[p])
	for _, e := range row {
		dw[e.idx] = e.val
		rowMax = math.Max(rowMax, math.Abs(e.val))
	}
	touched := len(row)
	etaBeg := len(lu.rent)
	diag := s[p]
	grown := 0.0
	for idx := lu.opos[p] + 1; idx < lu.m; idx++ {
		j := lu.order[idx]
		v := dw[j]
		if v == 0 {
			continue
		}
		dw[j] = 0
		grown = math.Max(grown, math.Abs(v))
		f := v / lu.udiag[j]
		lu.rent = append(lu.rent, spEntry{j, f})
		diag -= f * s[j]
		rj := lu.u.list(j)
		for _, e := range rj {
			dw[e.idx] -= f * e.val
		}
		touched += 1 + len(rj)
	}
	// Stability: det B' = w_r·det B, and only slot p's diagonal changes;
	// and the elimination must not have grown row p.
	want := piv * lu.udiag[p]
	if !(math.Abs(diag-want) <= ftStabTol*math.Abs(diag)) || grown > ftGrowthTol*rowMax {
		lu.rent = lu.rent[:etaBeg]
		lu.updEntries += touched
		return false
	}
	if len(lu.rent) > etaBeg {
		lu.rpiv = append(lu.rpiv, p)
		lu.rstart = append(lu.rstart, len(lu.rent))
	}

	// Column p: strike its old entries from the rows above p, clear row
	// p, and write the spike in.
	for _, k := range lu.ucols.list(p) {
		rk := lu.u.list(k)
		touched += len(rk)
		for i, e := range rk {
			if e.idx == p {
				rk[i] = rk[len(rk)-1]
				lu.u.end[k]--
				lu.unnz--
				break
			}
		}
	}
	lu.ucols.end[p] = lu.ucols.beg[p]
	lu.unnz -= len(row)
	lu.u.end[p] = lu.u.beg[p]
	for k, v := range s {
		if v != 0 && k != p {
			lu.u.push(k, spEntry{p, v})
			lu.ucols.push(p, k)
			lu.unnz++
			touched++
		}
	}
	lu.udiag[p] = diag

	// Slot p is now last in order: its row holds only the diagonal, and
	// its column lies above every other diagonal.
	for idx := lu.opos[p]; idx < lu.m-1; idx++ {
		k := lu.order[idx+1]
		lu.order[idx], lu.opos[k] = k, idx
	}
	lu.order[lu.m-1], lu.opos[p] = p, lu.m-1
	lu.nupd++
	lu.updEntries += touched
	return lu.unnz+len(lu.rent) <= 2*lu.unnz0+lu.m
}
