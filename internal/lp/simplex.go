package lp

import (
	"fmt"
	"math"
)

// variable status within the simplex
type vstat uint8

const (
	atLower vstat = iota
	atUpper
	basic
)

// simplex carries the working state of one solve.
type simplex struct {
	m int // rows

	cost   []float64 // phase-2 costs
	lo, up []float64
	cols   [][]Entry
	rhs    []float64

	nStruct int // structural column count
	nSlack  int // slack column count
	artBase int // first artificial column index

	slackOf []int // row → its slack column, or −1 (EQ rows)

	status []vstat
	basis  []int     // basis[i] = column basic at position i
	xB     []float64 // values of basic variables by position
	xN     []float64 // value of every column when nonbasic (its bound)

	lu *basisLU // sparse LU factorization of the basis, kept current by updates

	ws *workspace // owning workspace; all scratch slices below live in it

	// reusable buffers
	ybuf  []float64 // duals, matrix-row space
	cbbuf []float64 // basic costs, position space
	rbuf  []float64 // rhs residual for xB recomputation

	iters   int
	refacts int // refactorization count, surfaced in Solution

	// pricing state (see pricing.go)
	d           []float64 // reduced costs c_j − y·A_j under the running phase's costs; 0 for basic columns
	dStale      bool      // d must be recomputed from scratch before the next scan
	dUpdated    bool      // the pivot-row pass has moved d since its last recompute
	gamma       []float64 // Devex reference weights, one per column
	rhobuf      []float64 // BTRAN(e_r) pivot-row buffer, matrix-row space
	unitbuf     []float64 // unit-vector input for the pivot-row BTRAN
	scanCursor  int       // partial-pricing rotation cursor
	pscans      int       // nonbasic columns examined by pricing
	blandPivots int       // pivots taken under the Bland fallback

	// Row-wise matrix index for the pivot-row pass: rowIdx[i] lists the
	// columns with a nonzero in row i, so α_r = ρ·A is a scatter over
	// ρ's support instead of a dot product per nonbasic column. Built
	// lazily on the first pivot, extended incrementally as repair paths
	// append artificials.
	rowIdx   [][]rowEnt
	rowIdxN  int       // columns indexed into rowIdx so far
	rowAlpha []float64 // pivot-row scatter accumulator, column space (kept zeroed)
}

// rowEnt is one row-wise matrix entry: column index and coefficient.
type rowEnt struct {
	col  int32
	coef float64
}

// newSimplex builds the working state from a problem: GE rows normalized
// to LE by negation, slack columns appended, costs optionally perturbed.
// rowNeg records the per-row sign applied, for un-normalizing duals.
// All working arrays come from ws; columns untouched by GE negation
// alias the problem's own columns (the simplex never mutates entries).
func (p *Problem) newSimplex(perturb float64, ws *workspace) (*simplex, []float64) {
	m := len(p.rhs)
	s := &simplex{m: m, nStruct: p.numVars, ws: ws}

	ws.rowNeg = growSlice(ws.rowNeg, m)
	rowNeg := ws.rowNeg
	anyGE := false
	s.rhs = ws.rhs[:0]
	for i, sense := range p.rowSense {
		if sense == GE {
			rowNeg[i] = -1
			anyGE = true
		} else {
			rowNeg[i] = 1
		}
		s.rhs = append(s.rhs, p.rhs[i]*rowNeg[i])
	}
	// Additive deterministic jitter scaled by the largest cost magnitude:
	// a relative (multiplicative) perturbation is a no-op on zero-cost
	// columns, which are exactly the tied columns that drive degenerate
	// pivot cycles, so it could never break the ties it was added for.
	jitterScale := 0.0
	if perturb != 0 {
		for _, c := range p.cost {
			if a := math.Abs(c); a > jitterScale {
				jitterScale = a
			}
		}
		if jitterScale == 0 {
			jitterScale = 1
		}
	}
	s.cols = ws.cols[:0]
	s.cost = ws.cost[:0]
	s.lo = ws.lo[:0]
	s.up = ws.up[:0]
	ws.colArena.reset()
	for j := 0; j < p.numVars; j++ {
		pc := p.cols[j]
		col := pc
		if anyGE {
			// Copy (sign-normalized) only the columns a GE row touches;
			// x·1 is bitwise x, so untouched columns alias safely.
			for _, e := range pc {
				if rowNeg[e.Row] < 0 {
					cc := ws.colArena.take(len(pc))
					for _, e := range pc {
						cc = append(cc, Entry{Row: e.Row, Coef: e.Coef * rowNeg[e.Row]})
					}
					col = cc
					break
				}
			}
		}
		s.cols = append(s.cols, col)
		cj := p.cost[j]
		if perturb != 0 {
			// Deterministic per-column jitter in (0, perturb·max|c|].
			h := uint64(j)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
			cj += perturb * jitterScale * float64(h%(1<<20)+1) / (1 << 20)
		}
		s.cost = append(s.cost, cj)
		s.lo = append(s.lo, p.lo[j])
		s.up = append(s.up, p.up[j])
	}
	// Slack columns for (normalized) LE rows.
	for i, sense := range p.rowSense {
		if sense == EQ {
			continue
		}
		sc := ws.colArena.take(1)
		sc = append(sc, Entry{Row: i, Coef: 1})
		s.cols = append(s.cols, sc)
		s.cost = append(s.cost, 0)
		s.lo = append(s.lo, 0)
		s.up = append(s.up, math.Inf(1))
		s.nSlack++
	}
	s.artBase = len(s.cols)
	s.buildSlackOf()
	s.d = growSlice(ws.d, len(s.cols))
	s.ybuf = growSlice(ws.ybuf, m)
	s.cbbuf = growSlice(ws.cbbuf, m)
	s.rbuf = growSlice(ws.rbuf, m)
	s.gamma = growSlice(ws.gamma, 0)
	s.rhobuf = growSlice(ws.rhobuf, m)
	s.unitbuf = growSlice(ws.unitbuf, m)
	// Row index rebuilds lazily per solve (see ensureRowIndex); reuse the
	// outer and inner slices, emptied.
	s.rowIdx = growSlice(ws.rowIdx, m)
	for i := range s.rowIdx {
		s.rowIdx[i] = s.rowIdx[i][:0]
	}
	s.rowIdxN = 0
	s.rowAlpha = growSlice(ws.rowAlpha, 0)
	return s, rowNeg
}

func (s *simplex) buildSlackOf() {
	s.ws.slackOf = growSlice(s.ws.slackOf, s.m)
	s.slackOf = s.ws.slackOf
	for i := range s.slackOf {
		s.slackOf[i] = -1
	}
	for k := 0; k < s.nSlack; k++ {
		j := s.nStruct + k
		s.slackOf[s.cols[j][0].Row] = j
	}
}

// addArtificial appends an artificial unit column for the given row and
// returns its index. Initial-basis artificials carry the residual's sign
// and are free above zero (phase 1 drives them out); repair and
// warm-start artificials are pinned to zero so they can never re-enter
// the solution.
func (s *simplex) addArtificial(row int, coef, up float64) int {
	j := len(s.cols)
	s.cols = append(s.cols, []Entry{{Row: row, Coef: coef}})
	s.cost = append(s.cost, 0)
	s.lo = append(s.lo, 0)
	s.up = append(s.up, up)
	s.status = append(s.status, atLower)
	s.xN = append(s.xN, 0)
	s.d = append(s.d, 0)
	return j
}

// initBasis builds the starting basis: slacks where feasible, artificials
// elsewhere, with all structural variables at their lower bound.
func (s *simplex) initBasis() error {
	s.status = growSlice(s.ws.status, len(s.cols))
	s.xN = growSlice(s.ws.xN, len(s.cols))
	for j := range s.cols {
		s.status[j] = atLower
		s.xN[j] = s.lo[j]
	}
	// Row activity with all structurals at bounds.
	s.ws.act = growSlice(s.ws.act, s.m)
	act := s.ws.act
	for i := range act {
		act[i] = 0
	}
	for j := 0; j < s.nStruct; j++ {
		if s.xN[j] != 0 {
			for _, e := range s.cols[j] {
				act[e.Row] += e.Coef * s.xN[j]
			}
		}
	}
	s.basis = growSlice(s.ws.basis, s.m)
	s.xB = growSlice(s.ws.xB, s.m)
	for i := 0; i < s.m; i++ {
		resid := s.rhs[i] - act[i]
		if sj := s.slackOf[i]; sj >= 0 && resid >= 0 {
			s.basis[i] = sj
			s.status[sj] = basic
			s.xB[i] = resid
			continue
		}
		// Artificial with coefficient matching the residual's sign so
		// its value is non-negative.
		coef := 1.0
		if resid < 0 {
			coef = -1
		}
		j := s.addArtificial(i, coef, math.Inf(1))
		s.status[j] = basic
		s.basis[i] = j
		s.xB[i] = math.Abs(resid)
	}
	return s.refactorize()
}

// initBasisFrom builds the starting state from a warm-start snapshot:
// statuses are applied where the snapshot covers them, rows and columns
// the snapshot predates get defaults (logical basic, at lower bound),
// the basic set is padded or trimmed to exactly m, factored with repair,
// and the resulting vertex is checked for primal feasibility. Any
// failure returns errWarmStart and the caller falls back to a cold
// solve.
func (s *simplex) initBasisFrom(b *Basis) error {
	s.status = growSlice(s.ws.status, len(s.cols))
	s.xN = growSlice(s.ws.xN, len(s.cols))
	basicList := make([]int, 0, s.m)
	for j := 0; j < s.nStruct; j++ {
		st := StatusLower
		if j < len(b.Vars) {
			st = b.Vars[j]
		}
		switch {
		case st == StatusBasic:
			s.status[j] = basic
			basicList = append(basicList, j)
		case st == StatusUpper && !math.IsInf(s.up[j], 1):
			s.status[j] = atUpper
			s.xN[j] = s.up[j]
		default:
			s.status[j] = atLower
			s.xN[j] = s.lo[j]
		}
	}
	for j := s.nStruct; j < len(s.cols); j++ {
		s.status[j] = atLower
		s.xN[j] = 0
	}
	// Row logicals: snapshot statuses where present; rows created after
	// the snapshot default to logical-basic (a fresh row's slack — or
	// degenerate artificial — is the only column that can cover it).
	covered := make([]bool, s.m)
	logicalOf := func(i int) int {
		if sj := s.slackOf[i]; sj >= 0 {
			return sj
		}
		return s.addArtificial(i, 1, 0)
	}
	for i := 0; i < s.m; i++ {
		if i < len(b.Rows) && b.Rows[i] != StatusBasic {
			continue
		}
		j := logicalOf(i)
		if s.status[j] != basic {
			s.status[j] = basic
			basicList = append(basicList, j)
		}
		covered[i] = true
	}
	// Pad with logicals of uncovered rows, trim surplus from the end;
	// factorization repair resolves any remaining mismatch.
	for i := 0; i < s.m && len(basicList) < s.m; i++ {
		if covered[i] {
			continue
		}
		j := logicalOf(i)
		if s.status[j] != basic {
			s.status[j] = basic
			basicList = append(basicList, j)
			covered[i] = true
		}
	}
	for len(basicList) > s.m {
		j := basicList[len(basicList)-1]
		basicList = basicList[:len(basicList)-1]
		s.status[j] = atLower
		s.xN[j] = s.lo[j]
	}
	if len(basicList) != s.m {
		return errWarmStart
	}
	s.basis = basicList
	s.xB = growSlice(s.ws.xB, s.m)
	for i := range s.xB {
		s.xB[i] = 0 // repair paths read xB before recomputeXB fills it
	}
	if err := s.refactorize(); err != nil {
		return errWarmStart
	}
	// The warm vertex must be primal feasible — the primal simplex has
	// no way to recover feasibility outside phase 1.
	for i, j := range s.basis {
		tol := feasTol * (1 + math.Abs(s.xB[i]))
		if s.xB[i] < s.lo[j]-tol || s.xB[i] > s.up[j]+tol {
			return errWarmStart
		}
	}
	return nil
}

// captureBasis snapshots the final statuses for warm starts.
func (s *simplex) captureBasis() *Basis {
	b := &Basis{Vars: make([]VarStatus, s.nStruct), Rows: make([]VarStatus, s.m)}
	for j := 0; j < s.nStruct; j++ {
		switch s.status[j] {
		case basic:
			b.Vars[j] = StatusBasic
		case atUpper:
			b.Vars[j] = StatusUpper
		default:
			b.Vars[j] = StatusLower
		}
	}
	for _, j := range s.basis {
		if j >= s.nStruct {
			b.Rows[s.cols[j][0].Row] = StatusBasic
		}
	}
	return b
}

func (s *simplex) needPhase1() bool {
	for j := s.artBase; j < len(s.cols); j++ {
		if s.status[j] == basic {
			return true
		}
	}
	return false
}

// objective evaluates cost·x at the current point.
func (s *simplex) objective(cost []float64) float64 {
	var obj float64
	s.ws.xbuf = growSlice(s.ws.xbuf, len(s.cols))
	x := s.primalInto(s.ws.xbuf)
	for j := range x {
		if j < len(cost) {
			obj += cost[j] * x[j]
		}
	}
	return obj
}

// primal assembles the full primal vector (freshly allocated: the head
// of the result escapes into Solution.X).
func (s *simplex) primal() []float64 {
	return s.primalInto(make([]float64, len(s.cols)))
}

func (s *simplex) primalInto(x []float64) []float64 {
	for j := range s.cols {
		if s.status[j] != basic {
			x[j] = s.xN[j]
		} else {
			x[j] = 0
		}
	}
	for i, j := range s.basis {
		x[j] = s.xB[i]
	}
	return x
}

// dualsInto computes y = c_B·B⁻¹ (BTRAN) into the given buffer.
func (s *simplex) dualsInto(cost []float64, y []float64) {
	cb := s.cbbuf
	for i, j := range s.basis {
		cb[i] = costOf(cost, j)
	}
	s.lu.btran(cb, y)
}

// recomputeReducedCosts sets y = c_B·B⁻¹ and every reduced cost
// d_j = c_j − y·A_j from scratch under the current factorization (0 for
// basic columns). Between recomputes the pivot-row pass keeps d current
// (pricing.go).
func (s *simplex) recomputeReducedCosts(cost []float64) {
	y := s.ybuf
	s.dualsInto(cost, y)
	for j := range s.cols {
		if s.status[j] == basic {
			s.d[j] = 0
		} else {
			s.d[j] = s.reducedCost(cost, y, j)
		}
	}
	s.dStale, s.dUpdated = false, false
}

// reducedCost computes c_j − y·A_j; only recomputeReducedCosts calls
// it.
func (s *simplex) reducedCost(cost []float64, y []float64, j int) float64 {
	d := costOf(cost, j)
	for _, e := range s.cols[j] {
		d -= y[e.Row] * e.Coef
	}
	return d
}

// refactorize rebuilds the LU factorization of the basis from scratch
// and recomputes the basic values, containing the drift that
// accumulates across updates. A rank-deficient basis is repaired —
// dependent columns are replaced by logical columns — instead of
// aborting; only a repair that cannot restore a feasible basis
// surfaces errSingular.
func (s *simplex) refactorize() error {
	s.refacts++
	s.dStale = true
	repaired := false
	for attempt := 0; ; attempt++ {
		lu := s.ws.takeLU(s.lu)
		if s.ws.onFactor != nil {
			s.ws.onFactor(s.m, s.cols, s.basis)
		}
		ok, depPos, depRows := factorBasis(&s.ws.fw, lu, s.m, s.cols, s.basis)
		if ok {
			s.lu = lu
			break
		}
		if attempt >= 2 {
			return errSingular
		}
		s.repairBasis(depPos, depRows)
		repaired = true
	}
	s.recomputeXB()
	if repaired {
		// Repair snapped ejected columns to their nearest bound; if the
		// repaired vertex is materially infeasible the repair failed and
		// the caller's perturbation retry takes over.
		const repairTol = 1e-6
		for i, j := range s.basis {
			tol := repairTol * (1 + math.Abs(s.xB[i]))
			if s.xB[i] < s.lo[j]-tol || s.xB[i] > s.up[j]+tol {
				return errSingular
			}
		}
	}
	return nil
}

// repairBasis replaces each dependent basis column with a logical
// (slack, or pinned-at-zero artificial) column of one of the unpivoted
// rows: the pivoted submatrix is nonsingular and unit columns on the
// remaining rows complete it. Ejected columns become nonbasic at their
// nearest bound — dependent columns arise from degenerate pivots, so
// they sit (numerically) on a bound already.
func (s *simplex) repairBasis(depPos, depRows []int) {
	for idx, pos := range depPos {
		row := depRows[idx]
		old := s.basis[pos]
		v := s.xB[pos]
		if math.IsInf(s.up[old], 1) || v-s.lo[old] <= s.up[old]-v {
			s.status[old] = atLower
			s.xN[old] = s.lo[old]
		} else {
			s.status[old] = atUpper
			s.xN[old] = s.up[old]
		}
		j := s.slackOf[row]
		if j < 0 || s.status[j] == basic {
			j = s.addArtificial(row, 1, 0)
		}
		s.basis[pos] = j
		s.status[j] = basic
	}
}

// recomputeXB solves B·x_B = b − N·x_N for the basic values.
func (s *simplex) recomputeXB() {
	resid := s.rbuf
	copy(resid, s.rhs)
	for j := range s.cols {
		if s.status[j] == basic || s.xN[j] == 0 {
			continue
		}
		for _, e := range s.cols[j] {
			resid[e.Row] -= e.Coef * s.xN[j]
		}
	}
	s.lu.ftranDense(resid, s.xB)
}

// applyPivot folds one pivot into the factorization, refactorizing when
// the update asks for it, and marks d for a recompute every
// recomputeEvery updates.
func (s *simplex) applyPivot(leave int, w []float64) error {
	if !s.lu.update(leave, w) {
		return s.refactorize()
	}
	if s.lu.nUpdates()%recomputeEvery == 0 {
		s.dStale = true
	}
	return nil
}

// iterate runs primal simplex pivots under the given cost vector until
// optimality, unboundedness, or the iteration cap.
func (s *simplex) iterate(cost []float64, maxIter int) (Status, error) {
	s.ws.wbuf = growSlice(s.ws.wbuf, s.m)
	w := s.ws.wbuf
	// Switch to Bland's rule after a degenerate streak long enough to
	// suggest cycling rather than ordinary degeneracy.
	blandAfter := 200 + (s.m+len(s.cols))/4
	degenerate := 0
	// d belongs to one cost vector: each phase starts from scratch.
	s.dStale = true

	startIters := s.iters
	for {
		if s.iters >= maxIter {
			return 0, fmt.Errorf("%w (m=%d n=%d phaseIters=%d degenerateStreak=%d bland=%v)",
				ErrIterationLimit, s.m, len(s.cols), s.iters-startIters, degenerate, degenerate > blandAfter)
		}
		if s.dStale {
			s.recomputeReducedCosts(cost)
		}
		if s.ws.onPrice != nil {
			s.ws.onPrice(s, cost, false)
		}

		// Pricing: Devex; Bland's rule after a long degenerate streak to
		// guarantee termination (see pricing.go).
		var enter int
		var enterDir float64 // +1 entering rises from lower, −1 falls from upper
		useBland := degenerate > blandAfter
		if useBland {
			enter, enterDir = s.priceBland(cost)
		} else {
			s.ensureGamma()
			enter, enterDir = s.price(cost)
		}
		if enter < 0 {
			if s.dUpdated {
				// The scan read updated reduced costs, whose drift could
				// hide an improving column: recompute them and rescan
				// before declaring optimality.
				s.dStale = true
				continue
			}
			if s.ws.onPrice != nil {
				s.ws.onPrice(s, cost, true)
			}
			return Optimal, nil
		}

		s.lu.ftranCol(s.cols[enter], w)

		if useBland {
			// Strict Bland ratio test: exact limits, ties broken
			// by smallest basis column index. Together with
			// lowest-index pricing this guarantees termination.
			st, done, err := s.blandPivot(enter, enterDir, w, &degenerate)
			s.dStale = true // no pivot row was formed to update d from
			if err != nil {
				return 0, err
			}
			if done {
				return st, nil
			}
			continue
		}

		leave, leaveToUpper, tMax, unbounded := s.harrisRatio(enter, enterDir, w)
		if unbounded {
			return Unbounded, nil
		}
		// Weak-pivot guard: a pivot element far below the conditioning
		// threshold is, more often than not, update drift rather than
		// the true matrix element — exactly how the dense inverse used
		// to absorb a dependent column and die at the next
		// refactorization. Refresh the factorization and re-run the
		// ratio test on the recomputed column before committing.
		if leave >= 0 && math.Abs(w[leave]) < weakPivot && s.lu.nUpdates() > 0 {
			if err := s.refactorize(); err != nil {
				return 0, err
			}
			s.lu.ftranCol(s.cols[enter], w)
			leave, leaveToUpper, tMax, unbounded = s.harrisRatio(enter, enterDir, w)
			if unbounded {
				return Unbounded, nil
			}
		}
		if tMax < feasTol {
			degenerate++
		} else {
			degenerate = 0
		}
		s.iters++

		// Apply the step to the basic values.
		if tMax > 0 {
			for i := 0; i < s.m; i++ {
				s.xB[i] -= enterDir * w[i] * tMax
			}
		}

		if leave < 0 {
			// Bound flip: entering variable jumps to its other bound.
			// The basis is unchanged, so y, the reduced costs and the
			// Devex weights stay as they are.
			if enterDir > 0 {
				s.status[enter] = atUpper
				s.xN[enter] = s.up[enter]
			} else {
				s.status[enter] = atLower
				s.xN[enter] = s.lo[enter]
			}
			continue
		}

		// Reduced-cost and reference-weight update against the
		// pre-pivot basis.
		s.pivotRowUpdate(enter, leave, w)

		// Pivot: enter replaces basis[leave].
		exiting := s.basis[leave]
		if leaveToUpper {
			s.status[exiting] = atUpper
			s.xN[exiting] = s.up[exiting]
		} else {
			s.status[exiting] = atLower
			s.xN[exiting] = s.lo[exiting]
		}
		enterVal := s.xN[enter] + enterDir*tMax
		s.basis[leave] = enter
		s.status[enter] = basic
		s.xB[leave] = enterVal

		if err := s.applyPivot(leave, w); err != nil {
			return 0, err
		}
	}
}

// harrisRatio is the Harris-style two-pass ratio test. The entering
// variable moves by t ≥ 0 in direction enterDir; basic variable i
// changes by −enterDir·w[i]·t. Pass 1 finds the exact minimum ratio;
// pass 2 picks, among rows tied (within numerical noise) at that
// minimum, the one with the largest pivot magnitude for numerical
// stability — widening the tie band once (trading a bounded,
// ≤ feasTol-scale ratio violation for basis conditioning) if the best
// tie pivot is numerically weak. Exact pass-1 limits (unlike a fully
// relaxed Harris pass 1) cannot accumulate row infeasibility across
// iterations, which previously caused stalling on the SLOTOFF master
// problems. leave < 0 with a finite tMax means a bound flip.
func (s *simplex) harrisRatio(enter int, enterDir float64, w []float64) (leave int, leaveToUpper bool, tMax float64, unbounded bool) {
	rmin, unbounded := s.ratioLimits(enter, enterDir, w)
	if unbounded {
		return -1, false, 0, true
	}
	lims := s.ws.lim
	leave = -1
	tMax = rmin
	bestPivot := 0.0
	for _, tieScale := range []float64{1e-9, 1e-7} {
		tie := rmin + tieScale*(1+rmin)
		for i, lim := range lims {
			if lim > tie {
				continue
			}
			if piv := math.Abs(w[i]); piv > bestPivot {
				bestPivot, leave, leaveToUpper = piv, i, -enterDir*w[i] > 0
			}
		}
		if bestPivot >= weakPivot {
			break
		}
	}
	if tMax < 0 {
		tMax = 0
	}
	return leave, leaveToUpper, tMax, false
}

// blandPivot performs one simplex step with the exact (non-relaxed) ratio
// test and Bland tie-breaking (smallest basis column index), which — with
// lowest-index pricing — provably terminates on degenerate cycles.
// It returns (Unbounded, true, nil) if the step is unbounded.
func (s *simplex) blandPivot(enter int, enterDir float64, w []float64, degenerate *int) (Status, bool, error) {
	const tieTol = 1e-12
	// Pass 1: exact minimum ratio, including the entering variable's
	// own bound span.
	rmin, unbounded := s.ratioLimits(enter, enterDir, w)
	if unbounded {
		return Unbounded, true, nil
	}
	// Pass 2: among rows achieving the minimum, the smallest basis
	// column index leaves.
	leave := -1
	leaveToUpper := false
	for i, lim := range s.ws.lim {
		if lim <= rmin+tieTol && (leave < 0 || s.basis[i] < s.basis[leave]) {
			leave, leaveToUpper = i, -enterDir*w[i] > 0
		}
	}
	if rmin < feasTol {
		*degenerate++
	} else {
		*degenerate = 0
	}
	s.iters++
	s.blandPivots++
	if rmin > 0 {
		for i := 0; i < s.m; i++ {
			s.xB[i] -= enterDir * w[i] * rmin
		}
	}
	if leave < 0 {
		// Bound flip.
		if enterDir > 0 {
			s.status[enter] = atUpper
			s.xN[enter] = s.up[enter]
		} else {
			s.status[enter] = atLower
			s.xN[enter] = s.lo[enter]
		}
		return 0, false, nil
	}
	exiting := s.basis[leave]
	if leaveToUpper {
		s.status[exiting] = atUpper
		s.xN[exiting] = s.up[exiting]
	} else {
		s.status[exiting] = atLower
		s.xN[exiting] = s.lo[exiting]
	}
	s.basis[leave] = enter
	s.status[enter] = basic
	s.xB[leave] = s.xN[enter] + enterDir*rmin
	if err := s.applyPivot(leave, w); err != nil {
		return 0, false, err
	}
	return 0, false, nil
}

// ratioLimits is both ratio tests' first pass. Basic row i changes by
// delta = −enterDir·w[i] per unit step; ratioLimits sets ws.lim[i] to the
// step at which the row reaches the bound it moves toward (+Inf if it
// never limits the step) and returns the smallest such step, or the
// entering variable's bound span if that is smaller.
//
// A row whose |delta| is at most pivotTol, relative to w's largest entry
// where that exceeds 1, is weak: too small to pivot on where a stronger
// row ties, but its limit is where it would cross its bound by feasTol,
// so the step cannot run it further. On a badly scaled master such a
// delta can be real — a capacity slack entering by 9.4e5 moved an
// embedding fraction by 6.5e-10 per unit, and a ratio test that skipped
// the row ran that fraction to −5e-4 — or rounding: a column whose FTRAN
// image reached 3.5e7 showed 7.5e-9 on a degenerate row, and pivoting
// there made the basis singular, whose repair restored the basis it
// left, forever. unbounded reports that no strong row limits the step:
// weak rows never bound a ray the strong rows leave open.
func (s *simplex) ratioLimits(enter int, enterDir float64, w []float64) (rmin float64, unbounded bool) {
	big := 1.0
	for _, wi := range w {
		if a := math.Abs(wi); a > big {
			big = a
		}
	}
	weakTol := pivotTol * big
	s.ws.lim = growSlice(s.ws.lim, s.m)
	lims := s.ws.lim
	rmin = s.up[enter] - s.lo[enter] // bound-flip limit
	weakMin := math.Inf(1)
	for i, wi := range w[:s.m] {
		lims[i] = math.Inf(1)
		delta := -enterDir * wi
		bj := s.basis[i]
		var room float64
		switch {
		case delta < 0: // basic value falls toward its lower bound
			room = s.xB[i] - s.lo[bj]
		case delta > 0 && !math.IsInf(s.up[bj], 1): // rises toward its upper bound
			room = s.up[bj] - s.xB[i]
		default:
			continue
		}
		a := math.Abs(delta)
		if a <= weakTol {
			lim := (snapSlack(room) + feasTol) / a
			lims[i] = lim
			weakMin = math.Min(weakMin, lim)
			continue
		}
		lim := snapSlack(room) / a
		lims[i] = lim
		if lim < rmin {
			rmin = lim
		}
	}
	if math.IsInf(rmin, 1) {
		return rmin, true
	}
	return math.Min(rmin, weakMin), false
}

// costOf returns the phase cost of column j (0 for columns beyond the
// cost vector, i.e. artificials in phase 2).
func costOf(cost []float64, j int) float64 {
	if j < len(cost) {
		return cost[j]
	}
	return 0
}

// snapSlack treats a basic variable's distance to its bound as exactly
// zero when it is within the feasibility tolerance (including slightly
// negative from floating-point noise). Without the snap, noise-level
// slacks produce endless ~1e-9 micro-steps that never trip the degeneracy
// guard — the stall observed on the SLOTOFF master problems.
func snapSlack(d float64) float64 {
	if d < feasTol {
		return 0
	}
	return d
}
