package lp

import "math"

// This file implements the sparse linear algebra behind the revised
// simplex: an LU factorization of the m×m basis matrix with Markowitz
// pivot ordering under threshold partial pivoting, forward/backward
// solves (FTRAN/BTRAN), and a product-form eta file so a pivot costs
// O(nnz) instead of the O(m²) a dense inverse update paid. The
// factorization also *reports* rank deficiency instead of failing: a
// dependent basis can be repaired (see simplex.repairBasis) rather than
// aborting the solve.

// spEntry is one nonzero of a sparse vector.
type spEntry struct {
	idx int
	val float64
}

// eta is one product-form update. Replacing the basis column at position
// r by an entering column with FTRAN image w multiplies the basis by the
// elementary matrix E = I with column r replaced by w; the eta stores w
// split into its pivot w_r and the remaining nonzeros.
type eta struct {
	r     int
	pivot float64
	ents  []spEntry
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
	// maxEtas bounds the eta file; beyond it a refactorization is cheaper
	// than the ever-longer FTRAN/BTRAN passes and contains drift.
	maxEtas = 64
	// etaWeakTol flags an update whose pivot is small relative to the
	// spike's largest entry — the classic trigger for inverse drift and
	// the root cause of the "singular basis during refactorization"
	// failures the dense code hit.
	etaWeakTol = 1e-9
)

// basisLU is a sparse LU factorization of the basis, B = Pᵀ·L·U·Q with P
// the row permutation (prow) and Q the basis-position permutation (pcol),
// plus the eta file of pivot updates applied since the last
// refactorization.
type basisLU struct {
	m int

	prow    []int // prow[k]: matrix row pivoted at elimination step k
	pcol    []int // pcol[k]: basis position pivoted at step k
	rowStep []int // inverse of prow

	// L as multiplier ops in elimination order: op t (for lstart[k] ≤ t <
	// lstart[k+1]) subtracts lmult[t]·(pivot row k) from row lrow[t].
	lstart []int
	lrow   []int
	lmult  []float64

	// U rows in elimination-step space: row k holds udiag[k] on the
	// diagonal and off-diagonal entries (ucol[t], uval[t]) with ucol[t] > k.
	ustart []int
	ucol   []int
	uval   []float64
	udiag  []float64

	etas []eta
	// entArena backs the eta entry slices between refactorizations.
	entArena arena[spEntry]

	ywork []float64 // scratch, matrix-row space
	zwork []float64 // scratch, step space

}

// reset prepares lu to be refilled by factorBasis, reusing every buffer.
func (lu *basisLU) reset(m int) {
	lu.m = m
	lu.prow = lu.prow[:0]
	lu.pcol = lu.pcol[:0]
	lu.lstart = append(lu.lstart[:0], 0)
	lu.lrow = lu.lrow[:0]
	lu.lmult = lu.lmult[:0]
	lu.ustart = append(lu.ustart[:0], 0)
	lu.ucol = lu.ucol[:0]
	lu.uval = lu.uval[:0]
	lu.udiag = lu.udiag[:0]
	lu.etas = lu.etas[:0]
	lu.entArena.reset()
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
	// uposcol mirrors ucol but in basis-position space during
	// elimination; converted to step space once the permutation is known.
	uposcol := ws.uposcol[:0]

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

		// Record the U row (off-diagonal entries still in position
		// space; mapped to steps after the permutation is complete).
		lu.udiag = append(lu.udiag, pivVal)
		for _, e := range pivRow {
			if e.idx != pivColI {
				uposcol = append(uposcol, e.idx)
				lu.uval = append(lu.uval, e.val)
			}
		}
		lu.ustart = append(lu.ustart, len(lu.uval))

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

	ws.uposcol = uposcol
	if len(depPos) > 0 {
		for i := 0; i < m; i++ {
			if rowActive[i] {
				depRows = append(depRows, i)
			}
		}
		return false, depPos, depRows
	}

	// Finalize: permutation inverses and U columns in step space.
	lu.rowStep = growSlice(lu.rowStep, m)
	ws.colStep = growSlice(ws.colStep, m)
	colStep := ws.colStep
	for k, r := range lu.prow {
		lu.rowStep[r] = k
	}
	for k, c := range lu.pcol {
		colStep[c] = k
	}
	lu.ucol = growSlice(lu.ucol, len(uposcol))
	for t, c := range uposcol {
		lu.ucol[t] = colStep[c]
	}
	lu.ywork = growSlice(lu.ywork, m)
	lu.zwork = growSlice(lu.zwork, m)
	return true, nil, nil
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
// basis-position space) fully overwritten.
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
	lu.ftranWork(w)
}

// ftranDense solves B·w = rhs for a dense right-hand side in matrix-row
// space. rhs is not modified.
//
//olive:hotpath inner simplex kernel
func (lu *basisLU) ftranDense(rhs []float64, w []float64) {
	copy(lu.ywork, rhs)
	lu.ftranWork(w)
}

// ftranWork completes an FTRAN whose right-hand side has been loaded
// into ywork: L solve, U back-substitution, permutation, eta file.
//
//olive:hotpath inner simplex kernel
func (lu *basisLU) ftranWork(w []float64) {
	y, z := lu.ywork, lu.zwork
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
	for k := m - 1; k >= 0; k-- {
		v := y[lu.prow[k]]
		for t := lu.ustart[k]; t < lu.ustart[k+1]; t++ {
			v -= lu.uval[t] * z[lu.ucol[t]]
		}
		z[k] = v / lu.udiag[k]
	}
	for k := 0; k < m; k++ {
		w[lu.pcol[k]] = z[k]
	}
	for idx := range lu.etas {
		e := &lu.etas[idx]
		t := w[e.r] / e.pivot
		if t != 0 {
			for _, s := range e.ents {
				w[s.idx] -= s.val * t
			}
		}
		w[e.r] = t
	}
}

// btran solves Bᵀ·y = c for c in basis-position space (c[i] pairs with
// the basis column at position i), leaving y in matrix-row space. c is
// not modified.
//
//olive:hotpath inner simplex kernel
func (lu *basisLU) btran(c []float64, y []float64) {
	m := lu.m
	z := lu.zwork
	copy(z, c)
	// Eta file, reversed and transposed.
	for idx := len(lu.etas) - 1; idx >= 0; idx-- {
		e := &lu.etas[idx]
		s := z[e.r]
		for _, en := range e.ents {
			s -= en.val * z[en.idx]
		}
		z[e.r] = s / e.pivot
	}
	// Ūᵀ·v = c̄ (forward, scattering each resolved v[k] into later steps).
	v := lu.ywork
	for k := 0; k < m; k++ {
		v[k] = z[lu.pcol[k]]
	}
	for k := 0; k < m; k++ {
		v[k] /= lu.udiag[k]
		vk := v[k]
		if vk == 0 {
			continue
		}
		for t := lu.ustart[k]; t < lu.ustart[k+1]; t++ {
			v[lu.ucol[t]] -= lu.uval[t] * vk
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

// nEtas reports how many pivot updates have accumulated since the last
// refactorization.
func (lu *basisLU) nEtas() int { return len(lu.etas) }

// update appends the product-form eta for a pivot replacing basis
// position r, whose entering column has FTRAN image w. It reports
// whether the factorization is still healthy; false asks the caller to
// refactorize now (eta file full, or the pivot is weak relative to the
// spike and would poison every subsequent solve).
func (lu *basisLU) update(r int, w []float64) bool {
	piv := w[r]
	maxw := 0.0
	n := 0
	for i, v := range w {
		if v == 0 {
			continue
		}
		if a := math.Abs(v); a > maxw {
			maxw = a
		}
		if i != r {
			n++
		}
	}
	ents := lu.entArena.take(n)
	for i, v := range w {
		if i != r && v != 0 {
			ents = append(ents, spEntry{i, v})
		}
	}
	lu.etas = append(lu.etas, eta{r: r, pivot: piv, ents: ents})
	return len(lu.etas) < maxEtas && math.Abs(piv) > etaWeakTol*maxw
}
