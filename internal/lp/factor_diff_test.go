package lp

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// factorDiffer factors a basis with factorBasis and with
// factorBasisReference and compares everything they produce, bit for
// bit. Both sides keep their workspace and basisLU across calls, so a
// sequence of checks also exercises buffer reuse.
type factorDiffer struct {
	fw, rw luWorkspace
	lu, rl basisLU
	calls  int
}

func (d *factorDiffer) check(m int, cols [][]Entry, basis []int) error {
	d.calls++
	ok, depPos, depRows := factorBasis(&d.fw, &d.lu, m, cols, basis)
	rok, rdepPos, rdepRows := factorBasisReference(&d.rw, &d.rl, m, cols, basis)
	if ok != rok {
		return fmt.Errorf("ok = %v, reference %v", ok, rok)
	}
	ints := func(name string, got, want []int) error {
		if !slices.Equal(got, want) {
			return fmt.Errorf("%s = %v, reference %v", name, got, want)
		}
		return nil
	}
	floats := func(name string, got, want []float64) error {
		if len(got) != len(want) {
			return fmt.Errorf("len(%s) = %d, reference %d", name, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return fmt.Errorf("%s[%d] = %x (%g), reference %x (%g)", name, i,
					math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
			}
		}
		return nil
	}
	for _, err := range []error{
		ints("depPos", depPos, rdepPos),
		ints("depRows", depRows, rdepRows),
		ints("prow", d.lu.prow, d.rl.prow),
		ints("pcol", d.lu.pcol, d.rl.pcol),
		ints("lstart", d.lu.lstart, d.rl.lstart),
		ints("lrow", d.lu.lrow, d.rl.lrow),
		floats("lmult", d.lu.lmult, d.rl.lmult),
		ints("ubeg", d.lu.u.beg, d.rl.u.beg),
		ints("uend", d.lu.u.end, d.rl.u.end),
		ints("ucol", entryIdxs(d.lu.u.data), entryIdxs(d.rl.u.data)),
		floats("uval", entryVals(d.lu.u.data), entryVals(d.rl.u.data)),
		floats("udiag", d.lu.udiag, d.rl.udiag),
	} {
		if err != nil {
			return err
		}
	}
	if !ok {
		return nil // ucol holds slots and rowStep is set only on success
	}
	return ints("rowStep", d.lu.rowStep, d.rl.rowStep)
}

// entryIdxs and entryVals split a sparse vector into its positions and
// its values.
func entryIdxs(es []spEntry) []int {
	out := make([]int, len(es))
	for i, e := range es {
		out[i] = e.idx
	}
	return out
}

func entryVals(es []spEntry) []float64 {
	out := make([]float64, len(es))
	for i, e := range es {
		out[i] = e.val
	}
	return out
}

// denseBasis turns a dense row-major matrix into factorBasis input,
// keeping explicit zeros out.
func denseBasis(a [][]float64) (cols [][]Entry, basis []int) {
	m := len(a)
	cols = make([][]Entry, m)
	basis = make([]int, m)
	for c := 0; c < m; c++ {
		basis[c] = c
		for r := 0; r < m; r++ {
			if a[r][c] != 0 {
				cols[c] = append(cols[c], Entry{Row: r, Coef: a[r][c]})
			}
		}
	}
	return cols, basis
}

// randomDense draws an m×m matrix with the given fill whose nonzeros
// come from draw. A strengthened permuted diagonal keeps most of them
// nonsingular without making the pivot order trivial.
func randomDense(rng *rand.Rand, m int, fill float64, diag bool, draw func() float64) [][]float64 {
	a := make([][]float64, m)
	for r := range a {
		a[r] = make([]float64, m)
		for c := range a[r] {
			if rng.Float64() < fill {
				a[r][c] = draw()
			}
		}
	}
	if diag {
		for c, r := range rng.Perm(m) {
			if a[r][c] == 0 {
				a[r][c] = draw()
			}
		}
	}
	return a
}

// TestFactorMatchesReference is the differential test of the incremental
// pivot search: factorBasis must reproduce the reference's permutations,
// L, U and dependency reports exactly.
func TestFactorMatchesReference(t *testing.T) {
	var d factorDiffer
	check := func(t *testing.T, what string, a [][]float64) {
		t.Helper()
		cols, basis := denseBasis(a)
		if err := d.check(len(a), cols, basis); err != nil {
			t.Fatalf("%s: %v\nmatrix %v", what, err, a)
		}
	}

	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(16, 1))
		uniform := func() float64 { return rng.Float64()*4 - 2 }
		// Small integers: equal magnitudes everywhere (the tie-breaks
		// decide every step) and exact cancellations with later fill-in.
		small := func() float64 { return float64(rng.IntN(5) - 2) }
		unit := func() float64 { return float64(2*rng.IntN(2) - 1) }
		// Magnitudes a decade apart straddle the 0.1 threshold.
		decades := func() float64 { return math.Pow(10, float64(rng.IntN(4)-2)) * float64(2*rng.IntN(2)-1) }
		n := 0
		for _, draw := range []func() float64{uniform, small, unit, decades} {
			for trial := 0; trial < 200; trial++ {
				m := 1 + rng.IntN(24)
				fill := 0.05 + 0.4*rng.Float64()
				check(t, fmt.Sprintf("random basis %d", n), randomDense(rng, m, fill, trial%4 != 0, draw))
				n++
			}
		}
		// The sparse generator the solve tests use, at larger m.
		for trial := 0; trial < 100; trial++ {
			m := 1 + rng.IntN(120)
			cols, basis := randomBasis(rng, m)
			if err := d.check(m, cols, basis); err != nil {
				t.Fatalf("sparse basis %d (m=%d): %v", trial, m, err)
			}
			n++
		}
		if n < 500 {
			t.Fatalf("only %d random bases", n)
		}
	})

	t.Run("rank deficient", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(16, 2))
		for trial := 0; trial < 300; trial++ {
			m := 2 + rng.IntN(16)
			a := randomDense(rng, m, 0.1+0.3*rng.Float64(), true, func() float64 { return float64(rng.IntN(7) - 3) })
			// Make 1..3 columns dependent: a copy, a multiple, a sum of
			// two others, an empty column, or one of negligible entries.
			for k := 1 + rng.IntN(3); k > 0; k-- {
				c, s1, s2 := rng.IntN(m), rng.IntN(m), rng.IntN(m)
				for r := 0; r < m; r++ {
					switch trial % 5 {
					case 0:
						a[r][c] = a[r][s1]
					case 1:
						a[r][c] = -2 * a[r][s1]
					case 2:
						a[r][c] = a[r][s1] + a[r][s2]
					case 3:
						a[r][c] = 0
					default:
						a[r][c] *= 1e-12
					}
				}
			}
			check(t, fmt.Sprintf("deficient basis %d", trial), a)
		}
	})

	t.Run("fixture solve", func(t *testing.T) {
		p := loadFixture(t, "../../testdata/lp/random100-u140-seed4.lp.gz")
		before, refVisits := d.calls, d.rw.visits
		p.ws.Store(&workspace{onFactor: func(m int, cols [][]Entry, basis []int) {
			if err := d.check(m, cols, basis); err != nil {
				t.Fatalf("refactorization %d: %v", d.calls-before, err)
			}
		}})
		sol := solveNoRetry(t, p)
		if got := d.calls - before; got != sol.Refactorizations || got == 0 {
			t.Fatalf("compared %d factorizations, solve reports %d", got, sol.Refactorizations)
		}
		if got := d.rw.visits - refVisits; got != referenceFactorVisits {
			t.Errorf("reference visits %d, TestPivotCountGuard's headline assumes %d", got, referenceFactorVisits)
		}
	})
}

// TestFactorPivotOrderTraps pins three places where a plausible
// incremental pivot search silently diverges from the reference. Each
// matrix is minimal for its trap: the shortcut named in the comment makes
// it fail.
func TestFactorPivotOrderTraps(t *testing.T) {
	var d factorDiffer
	factor := func(t *testing.T, a [][]float64) {
		t.Helper()
		cols, basis := denseBasis(a)
		if err := d.check(len(a), cols, basis); err != nil {
			t.Fatal(err)
		}
	}

	// Column 0 (count 2) offers score 4 through the count-5 rows 0 and 4,
	// best magnitude 1. Row 1 (count 3) holds a 2 in the count-3 column
	// 1: score 4 as well, found only at bucket 3, and it wins on
	// magnitude. Stopping the bucket search at k² ≥ best, not k² > best,
	// pivots on row 0.
	t.Run("equal score in a later bucket", func(t *testing.T) {
		factor(t, [][]float64{
			{-1, 2, 0.5, 3, 3},
			{0, 2, 2, 2, 0},
			{0, 0, -1, 2, 1},
			{0, 0, 2, 3, 0.5},
			{0.5, 0.5, 2, -1, -1},
		})
		if d.lu.prow[0] != 1 || d.lu.pcol[0] != 1 {
			t.Fatalf("first pivot (%d,%d), want (1,1)", d.lu.prow[0], d.lu.pcol[0])
		}
	})

	// An entry cancels exactly, another row's fill-in is listed behind
	// it in colRows, and later fill-in revives the cancelled entry: its
	// row keeps its original, earlier place among the L ops. Compacting
	// colRows down to the rows holding an entry right now swaps the two.
	t.Run("revived entry keeps its place", func(t *testing.T) {
		factor(t, [][]float64{
			{1, 3, 0.5, 2, -2},
			{0, 3, 0, 2, 0},
			{0, 2, 0.5, 3, -1},
			{3, -2, 0, 1, -1},
			{-2, 0, 3, 3, 3},
		})
		if want := []int{0, 2, 3, 0, 4, 0, 2, 0}; !slices.Equal(d.lu.lrow, want) {
			t.Fatalf("lrow = %v, want %v", d.lu.lrow, want)
		}
	})

	// Columns 1 and 2 are equal, so one of them runs out of entries and
	// is dropped. The reference counted rows before dropping it, so that
	// step's scores still include the dropped entries; with counts
	// corrected at once a different row is pivoted and the report of
	// rows left over changes.
	t.Run("dropped column counts for one more step", func(t *testing.T) {
		a := [][]float64{
			{-2, -1, -1, 1},
			{0, -1, -1, 2},
			{-1, 1, 1, 2},
			{3, -2, -2, 0},
		}
		factor(t, a)
		cols, basis := denseBasis(a)
		if ok, _, depRows := factorBasis(&d.fw, &d.lu, 4, cols, basis); ok || !slices.Equal(depRows, []int{2}) {
			t.Fatalf("ok=%v depRows=%v, want a dependency leaving row 2", ok, depRows)
		}
	})
}

// capturedBasis is a self-contained copy of one basis a solve factored.
// vars names the solve's column at each position.
type capturedBasis struct {
	m     int
	cols  [][]Entry
	basis []int
	vars  []int
}

// fixtureBases solves the seed-4 fixture and returns every basis it
// refactorized, in order.
func fixtureBases(tb testing.TB) []capturedBasis {
	var out []capturedBasis
	p := loadFixture(tb, "../../testdata/lp/random100-u140-seed4.lp.gz")
	p.ws.Store(&workspace{onFactor: func(m int, cols [][]Entry, basis []int) {
		c := capturedBasis{m: m, cols: make([][]Entry, m), basis: make([]int, m), vars: slices.Clone(basis)}
		for pos, j := range basis {
			c.cols[pos], c.basis[pos] = slices.Clone(cols[j]), pos
		}
		out = append(out, c)
	}})
	solveNoRetry(tb, p)
	return out
}

// BenchmarkFactorBasis replays the refactorizations of one solve of the
// seed-4 fixture: one op is all 42 of them. visits/op is the
// machine-independent cost TestPivotCountGuard pins; a warm workspace
// must not allocate.
func BenchmarkFactorBasis(b *testing.B) {
	bases := fixtureBases(b)
	var fw luWorkspace
	lu := new(basisLU)
	replay := func() {
		for _, c := range bases {
			if ok, _, _ := factorBasis(&fw, lu, c.m, c.cols, c.basis); !ok {
				b.Fatal("fixture basis reported dependent")
			}
		}
	}
	replay() // size the workspace
	start := fw.visits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay()
	}
	b.ReportMetric(float64(fw.visits-start)/float64(b.N), "visits/op")
}
