package lp

import "math"

// Pricing for the primal simplex: which nonbasic column enters the basis
// each iteration. The choice never affects which points are optimal,
// only how many pivots (and how much pricing work per pivot) the solve
// spends reaching one. The rule is Devex — approximate steepest-edge
// pricing with reference weights (Forrest–Goldfarb) — combined with
// partial pricing: each iteration scans a rotating section of the
// nonbasic columns instead of all of them. Devex weights make the chosen
// column a good ratio of objective gain to step distortion, which is
// what keeps the pivot count down; partial pricing cuts the
// per-iteration scan cost on wide problems. Bland's rule (priceBland)
// takes over on long degenerate streaks to guarantee termination.

// Devex and partial-pricing policy.
const (
	// devexResetWeight triggers a reference-framework reset: once the
	// entering column's weight grows past it the weights no longer
	// resemble the steepest-edge norms they approximate, and restarting
	// from the current basis (all weights 1) is the standard fix.
	devexResetWeight = 1e6
	// pricingSections divides the column range into rotating sections;
	// a Devex iteration stops scanning at the end of the first section
	// that yields an improving candidate. On the seed-4 fixture the
	// ~256-column sections this yields beat both full-scan Devex and
	// coarser splits on pivots AND scans — the rotation also acts as a
	// cheap perturbation on degenerate ties.
	pricingSections = 32
	// pricingMinSection keeps sections from degenerating on narrow
	// problems — below it, every iteration scans all columns and
	// partial pricing is a no-op.
	pricingMinSection = 256
)

// ensureGamma extends the Devex weight array to cover every column
// (repair paths append artificial columns mid-solve), initializing new
// entries to the reference weight 1.
func (s *simplex) ensureGamma() {
	for len(s.gamma) < len(s.cols) {
		s.gamma = append(s.gamma, 1)
	}
}

// devexReset restarts the reference framework at the current basis.
func (s *simplex) devexReset() {
	for i := range s.gamma {
		s.gamma[i] = 1
	}
}

// price selects the entering column, returning enter = −1 at
// optimality. enterDir is +1 for a column rising from its lower bound,
// −1 for one falling from its upper bound; enterRC is the column's
// reduced cost.
//
// The scan starts at a cursor that rotates across calls and proceeds
// section by section, stopping at the end of the first section
// containing an improving candidate; the winner maximizes d²/γ over the
// scanned improving set. Optimality is declared only after a full wrap
// finds no improving column, so partial pricing never weakens the
// optimality certificate.
func (s *simplex) price(cost, y []float64) (enter int, enterDir, enterRC float64) {
	n := len(s.cols)
	sect := n/pricingSections + 1
	if sect < pricingMinSection {
		sect = pricingMinSection
	}
	start := 0
	if s.scanCursor < n {
		start = s.scanCursor
	}
	enter = -1
	bestScore := 0.0
	off := 0
	for off < n {
		lim := off + sect
		if lim > n {
			lim = n
		}
		for ; off < lim; off++ {
			j := start + off
			if j >= n {
				j -= n
			}
			if s.status[j] == basic {
				continue
			}
			// Scale-aware optimality tolerance: with objective
			// coefficients spanning many orders of magnitude (the
			// PLAN-VNE costs reach 1e8), an absolute cutoff chases
			// floating-point phantoms in c_j − y·A_j forever.
			tol := dualTol * (1 + math.Abs(costOf(cost, j)))
			var d, dir float64
			switch s.status[j] {
			case atLower:
				d = s.reducedCost(cost, y, j)
				if !(d < -tol && s.lo[j] < s.up[j]) {
					continue
				}
				dir = 1
			case atUpper:
				d = s.reducedCost(cost, y, j)
				if !(d > tol) {
					continue
				}
				dir = -1
			default:
				continue
			}
			if score := d * d / s.gamma[j]; score > bestScore {
				bestScore = score
				enter, enterDir, enterRC = j, dir, d
			}
		}
		if enter >= 0 {
			break
		}
	}
	s.pscans += off
	cur := start + off
	if cur >= n {
		cur -= n
	}
	s.scanCursor = cur
	return enter, enterDir, enterRC
}

// priceBland is the anti-cycling fallback: lowest-index improving
// column, full scan — what guarantees termination on degenerate streaks.
func (s *simplex) priceBland(cost, y []float64) (enter int, enterDir float64) {
	for j := 0; j < len(s.cols); j++ {
		if s.status[j] == basic {
			continue
		}
		tol := dualTol * (1 + math.Abs(costOf(cost, j)))
		switch s.status[j] {
		case atLower:
			if d := s.reducedCost(cost, y, j); d < -tol && s.lo[j] < s.up[j] {
				s.pscans += j + 1
				return j, 1
			}
		case atUpper:
			if d := s.reducedCost(cost, y, j); d > tol {
				s.pscans += j + 1
				return j, -1
			}
		}
	}
	s.pscans += len(s.cols)
	return -1, 0
}

// ensureRowIndex extends the row-wise matrix index to cover every
// column (repair paths append artificial columns mid-solve). The index
// turns the devexUpdate pivot-row pass from "sparse dot per nonbasic
// column" — O(total nnz) per pivot, a full pricing scan's worth — into
// a scatter over only the columns intersecting ρ's support.
func (s *simplex) ensureRowIndex() {
	for j := s.rowIdxN; j < len(s.cols); j++ {
		for _, e := range s.cols[j] {
			s.rowIdx[e.Row] = append(s.rowIdx[e.Row], rowEnt{col: int32(j), coef: e.Coef})
		}
	}
	s.rowIdxN = len(s.cols)
}

// devexDropTol discards pivot-row entries too small to ever move a
// reference weight past an existing one; ρ rows under it contribute
// (αρ)² ≈ 0 to every candidate weight.
const devexDropTol = 1e-12

// devexUpdate folds one basis-changing pivot into the reference
// weights: entering column enter (FTRAN image w) replaces the basis
// column at position leave. The classic update needs the pivot row
// α_r = e_rᵀB⁻¹A — one BTRAN of a unit vector, then a row-indexed
// scatter restricted to ρ's nonzero rows:
//
//	γ_j  ← max(γ_j, (α_rj/α_rq)²·γ_q)   for nonbasic j
//	γ_x  ← max(γ_q/α_rq², 1)            for the leaving column x
//
// Called with the pre-pivot basis and statuses (B is the matrix the
// pivot row belongs to); the caller mutates them afterwards.
func (s *simplex) devexUpdate(enter, leave int, w []float64) {
	s.ensureGamma()
	alphaQ := w[leave]
	if math.Abs(alphaQ) < pivotTol {
		return
	}
	gq := s.gamma[enter]
	if gq < 1 {
		gq = 1
	}
	if gq > devexResetWeight {
		s.devexReset()
		return
	}
	// rho = e_leave·B⁻¹ in matrix-row space.
	unit := s.unitbuf
	for i := range unit {
		unit[i] = 0
	}
	unit[leave] = 1
	rho := s.rhobuf
	s.lu.btran(unit, rho)
	exiting := s.basis[leave]
	scale := gq / (alphaQ * alphaQ)
	s.ensureRowIndex()
	// Scatter α_rj = Σ_i ρ_i·A_ij over ρ's support. acc stays zeroed
	// between calls; touched remembers what to reset (a column whose
	// partial sums cancel to exactly 0 may be recorded twice — the
	// second reset pass is then a no-op).
	if len(s.devexAcc) < len(s.cols) {
		s.devexAcc = growSlice(s.devexAcc, len(s.cols))
		for i := range s.devexAcc {
			s.devexAcc[i] = 0
		}
	}
	acc := s.devexAcc
	touched := s.devexTouched[:0]
	for i := 0; i < s.m; i++ {
		r := rho[i]
		if r > -devexDropTol && r < devexDropTol {
			continue
		}
		for _, re := range s.rowIdx[i] {
			if acc[re.col] == 0 {
				touched = append(touched, re.col)
			}
			acc[re.col] += r * re.coef
		}
	}
	for _, j32 := range touched {
		j := int(j32)
		arj := acc[j]
		acc[j] = 0
		if arj == 0 || s.status[j] == basic || j == enter {
			continue
		}
		if cand := arj * arj * scale; cand > s.gamma[j] {
			s.gamma[j] = cand
		}
	}
	s.devexTouched = touched
	gx := scale
	if gx < 1 {
		gx = 1
	}
	s.gamma[exiting] = gx
}
