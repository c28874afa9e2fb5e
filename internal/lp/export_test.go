package lp

import (
	"fmt"
	"math"
)

// NumRows returns the number of constraint rows added so far.
func (p *Problem) NumRows() int { return len(p.rhs) }

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return p.numVars }

// CheckFactorizations makes the next Problem that draws its workspace
// from the shared cache run every basis it refactorizes through
// factorBasisReference as well, for tests outside this package (which
// can build a plan, where this package cannot import plan). done stops
// the checking and reports how many factorizations were compared and
// the first mismatch.
func CheckFactorizations() (done func() (compared int, mismatch error)) {
	var d factorDiffer
	var first error
	ws := &workspace{}
	ws.onFactor = func(m int, cols [][]Entry, basis []int) {
		if err := d.check(m, cols, basis); err != nil && first == nil {
			first = err
		}
	}
	wsCache.Store(ws)
	return func() (int, error) {
		ws.onFactor = nil
		return d.calls, first
	}
}

// reducedCostCheck holds the reduced costs a solve maintains to a
// from-scratch recompute c_j − y·A_j, y = c_B·B⁻¹, under the same
// factorization, before every pricing scan:
//
//   - within 1e-7·(1 + |c_j| + Σ_i |y_i·a_ij|) after pivot-row updates.
//     The scale is the terms' magnitude, not |c_j| alone: a slack's c_j
//     is 0 while its d_j = −y_i reaches 1.8e8 on the seed-4 fixture,
//     where one ulp is 3e-8. And it is 1e-7, not 1e-9: updates by
//     θ·α_rj with θ near 1e8 leave a drift of up to 1.7e-8 of that
//     magnitude there, which the recompute before optimality absorbs;
//   - bit for bit at the first scan after a refactorization and at the
//     scan that proves optimality, where d must be that recompute;
//   - 0 on every basic column.
type reducedCostCheck struct {
	y         []float64
	lastRefac int
	// scans counts the scans checked, updated those that read d after a
	// pivot-row update, exact those held bit for bit.
	scans, updated, exact int
	err                   error
}

// checkReducedCosts runs c on p's next solve, through a fresh workspace.
func checkReducedCosts(p *Problem) *reducedCostCheck {
	c := &reducedCostCheck{lastRefac: -1}
	p.ws.Store(&workspace{onPrice: c.check})
	return c
}

func (c *reducedCostCheck) check(s *simplex, cost []float64, optimal bool) {
	if c.err != nil {
		return
	}
	c.y = growSlice(c.y, s.m)
	s.dualsInto(cost, c.y)
	exact := optimal || s.refacts != c.lastRefac
	c.lastRefac = s.refacts
	c.scans++
	if s.dUpdated {
		c.updated++
	}
	if exact {
		c.exact++
	}
	for j := range s.cols {
		got := s.d[j]
		if s.status[j] == basic {
			if got != 0 {
				c.err = fmt.Errorf("scan %d: basic column %d has reduced cost %g", c.scans, j, got)
				return
			}
			continue
		}
		want := s.reducedCost(cost, c.y, j)
		if exact && math.Float64bits(got) != math.Float64bits(want) {
			c.err = fmt.Errorf("scan %d (refactorization %d, optimal %v): d[%d] = %v, recomputed %v",
				c.scans, s.refacts, optimal, j, got, want)
			return
		}
		mag := 1 + math.Abs(costOf(cost, j))
		for _, e := range s.cols[j] {
			mag += math.Abs(c.y[e.Row] * e.Coef)
		}
		if math.Abs(got-want) > 1e-7*mag {
			c.err = fmt.Errorf("scan %d: d[%d] = %v drifted from the recomputed %v by %g",
				c.scans, j, got, want, got-want)
			return
		}
	}
}
