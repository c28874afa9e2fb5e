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
//
// Pricing reads the reduced costs d_j = c_j − y·A_j from a column-space
// array rather than forming them from the duals. One pivot row serves
// two updates: each basis change computes ρ = e_r·B⁻¹ (its only BTRAN)
// and α_r = ρ·A, which updates both the Devex weights and d
// (d_j ← d_j − (d_q/α_rq)·α_rj; Maros 2003, Koberstein 2005). d is
// recomputed from scratch (recomputeReducedCosts) at the start of each
// phase, after every refactorization, after a Bland pivot, when the
// pivot element is too small to divide by, and before optimality is
// declared, so drift in the updates can never fake an optimum.

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

// price selects the entering column from the maintained reduced costs
// d, returning enter = −1 when no column improves. enterDir is +1 for a
// column rising from its lower bound, −1 for one falling from its upper
// bound; the column's reduced cost is d[enter].
//
// The scan starts at a cursor that rotates across calls and proceeds
// section by section, stopping at the end of the first section
// containing an improving candidate; the winner maximizes d²/γ over the
// scanned improving set. A return of −1 follows a full wrap, so partial
// pricing never weakens the optimality certificate; iterate accepts it
// only from reduced costs recomputed from scratch.
//
//olive:hotpath one call per pivot of every solve
func (s *simplex) price(cost []float64) (enter int, enterDir float64) {
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
			// Scale-aware optimality tolerance: with objective
			// coefficients spanning many orders of magnitude (the
			// PLAN-VNE costs reach 1e8), an absolute cutoff chases
			// floating-point phantoms in c_j − y·A_j forever.
			var dir float64
			d := s.d[j]
			switch s.status[j] {
			case atLower:
				if !(d < -dualTol*(1+math.Abs(costOf(cost, j))) && s.lo[j] < s.up[j]) {
					continue
				}
				dir = 1
			case atUpper:
				if !(d > dualTol*(1+math.Abs(costOf(cost, j)))) {
					continue
				}
				dir = -1
			default:
				continue
			}
			if score := d * d / s.gamma[j]; score > bestScore {
				bestScore = score
				enter, enterDir = j, dir
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
	return enter, enterDir
}

// priceBland is the anti-cycling fallback: lowest-index improving
// column, full scan — what guarantees termination on degenerate streaks.
func (s *simplex) priceBland(cost []float64) (enter int, enterDir float64) {
	for j := 0; j < len(s.cols); j++ {
		tol := dualTol * (1 + math.Abs(costOf(cost, j)))
		switch d := s.d[j]; s.status[j] {
		case atLower:
			if d < -tol && s.lo[j] < s.up[j] {
				s.pscans += j + 1
				return j, 1
			}
		case atUpper:
			if d > tol {
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
// turns the pivot-row pass from "sparse dot per nonbasic column" —
// O(total nnz) per pivot, a full pricing scan's worth — into a scatter
// over only the columns intersecting ρ's support.
func (s *simplex) ensureRowIndex() {
	for j := s.rowIdxN; j < len(s.cols); j++ {
		for _, e := range s.cols[j] {
			s.rowIdx[e.Row] = append(s.rowIdx[e.Row], rowEnt{col: int32(j), coef: e.Coef})
		}
	}
	s.rowIdxN = len(s.cols)
}

// devexDropTol discards pivot-row entries too small to matter: ρ rows
// under it contribute (αρ)² ≈ 0 to every candidate weight and a
// negligible term to every reduced-cost update.
const devexDropTol = 1e-12

// pivotRowUpdate folds one basis-changing pivot into the reduced costs
// and the reference weights: entering column q = enter (FTRAN image w)
// replaces the basis column x at position r = leave. It forms the pivot
// row α_r = e_rᵀB⁻¹A — one BTRAN of a unit vector, then a row-indexed
// scatter restricted to ρ's nonzero rows — and with θ = d_q/α_rq sets
//
//	d_j  ← d_j − θ·α_rj,  γ_j ← max(γ_j, (α_rj/α_rq)²·γ_q)   for nonbasic j ≠ q
//	d_q  ← 0,             d_x ← −θ,  γ_x ← max(γ_q/α_rq², 1)
//
// On a reference-framework reset the weights restart at 1 and only d
// moves. Called with the pre-pivot basis and statuses (B is the matrix
// the pivot row belongs to); the caller mutates them afterwards.
//
//olive:hotpath one call per basis-changing pivot of every solve
func (s *simplex) pivotRowUpdate(enter, leave int, w []float64) {
	s.ensureGamma()
	alphaQ := w[leave]
	if math.Abs(alphaQ) < pivotTol {
		// Too small to divide by: recompute d, and leave the weights.
		s.dStale = true
		return
	}
	gq := s.gamma[enter]
	if gq < 1 {
		gq = 1
	}
	scale := gq / (alphaQ * alphaQ)
	if gq > devexResetWeight {
		// With every weight back at 1 and scale 0, the sweep below
		// leaves the weights alone and γ_x ends at 1.
		s.devexReset()
		scale = 0
	}
	// rho = e_leave·B⁻¹ in matrix-row space.
	unit := s.unitbuf
	clear(unit)
	unit[leave] = 1
	rho := s.rhobuf
	s.lu.btran(unit, rho)
	s.ensureRowIndex()
	// Scatter α_rj = Σ_i ρ_i·A_ij over ρ's support into alpha, which is
	// all zeros between calls; the sweep below zeroes it again.
	n := len(s.cols)
	if len(s.rowAlpha) < n {
		s.rowAlpha = growSlice(s.rowAlpha, n)
		clear(s.rowAlpha)
	}
	alpha := s.rowAlpha[:n]
	for i := 0; i < s.m; i++ {
		r := rho[i]
		if r > -devexDropTol && r < devexDropTol {
			continue
		}
		for _, re := range s.rowIdx[i] {
			alpha[re.col] += r * re.coef
		}
	}
	theta := s.d[enter] / alphaQ
	d, gamma, status := s.d[:n], s.gamma[:n], s.status[:n]
	for j, arj := range alpha {
		if arj == 0 {
			continue
		}
		alpha[j] = 0
		if status[j] == basic || j == enter {
			continue
		}
		d[j] -= theta * arj
		if cand := arj * arj * scale; cand > gamma[j] {
			gamma[j] = cand
		}
	}
	exiting := s.basis[leave]
	d[enter] = 0
	d[exiting] = -theta
	s.dUpdated = true
	if scale < 1 {
		scale = 1
	}
	gamma[exiting] = scale
}
