package lp

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// updateStep replaces the basis column at pos by col.
type updateStep struct {
	pos int
	col []Entry
}

// updateRun is a basis the fixture solve refactorized and the column
// replacements that carry it toward the next one it refactorized.
type updateRun struct {
	start capturedBasis
	steps []updateStep
}

// fixtureUpdateRuns turns the seed-4 fixture solve's refactorized bases
// into update sequences. Between two consecutive bases the positions
// whose column changed are replaced one at a time, each as soon as its
// pivot in the current basis — read off a fresh factorization — is at
// least pivotTol·max(1, the FTRAN image's largest entry), the smallest
// pivot the ratio test takes; positions that never clear it are left
// out.
func fixtureUpdateRuns(tb testing.TB) []updateRun {
	bases := fixtureBases(tb)
	var runs []updateRun
	var fw luWorkspace
	lu := new(basisLU)
	for i := 0; i+1 < len(bases); i++ {
		a, b := bases[i], bases[i+1]
		if a.m != b.m {
			continue
		}
		m := a.m
		cur := slices.Clone(a.cols)
		var pending []int
		for pos := range a.vars {
			if a.vars[pos] != b.vars[pos] {
				pending = append(pending, pos)
			}
		}
		run := updateRun{start: a}
		w := make([]float64, m)
		for progress := true; progress; {
			progress = false
			if ok, _, _ := factorBasis(&fw, lu, m, cur, a.basis); !ok {
				tb.Fatalf("basis %d: replayed basis reported dependent", i)
			}
			for k, pos := range pending {
				lu.ftranCol(b.cols[pos], w)
				if math.Abs(w[pos]) < pivotTol*math.Max(1, maxAbs(w)) {
					continue
				}
				cur[pos] = b.cols[pos]
				run.steps = append(run.steps, updateStep{pos, b.cols[pos]})
				pending = slices.Delete(pending, k, k+1)
				progress = true
				break
			}
		}
		if len(run.steps) > 0 {
			runs = append(runs, run)
		}
	}
	return runs
}

func maxAbs(v []float64) float64 {
	mx := 0.0
	for _, x := range v {
		mx = math.Max(mx, math.Abs(x))
	}
	return mx
}

// relGap is the largest |got − want| over the largest |want| (or 1).
func relGap(got, want []float64) float64 {
	gap := 0.0
	for i := range want {
		gap = math.Max(gap, math.Abs(got[i]-want[i]))
	}
	return gap / math.Max(1, maxAbs(want))
}

// TestUpdatesMatchRefactorization replays the fixture solve's bases
// through Forrest–Tomlin updates. After every update, FTRAN and BTRAN of
// random sparse vectors must agree with a fresh factorization of the
// same basis within 1e-8 of the result's largest entry. The worst gap
// measured is 5.2e-9: the two factorizations round differently on
// these badly scaled bases, and the product-form eta file this update
// replaced read 5.2e-7 on the same construction over its own fixture
// solve. An update that asks for a refactorization gets one, as in the
// simplex.
func TestUpdatesMatchRefactorization(t *testing.T) {
	runs := fixtureUpdateRuns(t)
	rng := rand.New(rand.NewPCG(57, 1))
	var fw, freshWS luWorkspace
	lu, fresh := new(basisLU), new(basisLU)
	updates, refactors, worst := 0, 0, 0.0
	for ri, run := range runs {
		m := run.start.m
		cur := slices.Clone(run.start.cols)
		basis := run.start.basis
		if ok, _, _ := factorBasis(&fw, lu, m, cur, basis); !ok {
			t.Fatalf("run %d: start basis reported dependent", ri)
		}
		w, wantW := make([]float64, m), make([]float64, m)
		y, wantY, c := make([]float64, m), make([]float64, m), make([]float64, m)
		for si, st := range run.steps {
			lu.ftranCol(st.col, w)
			cur[st.pos] = st.col
			if lu.update(st.pos, w) {
				updates++
			} else {
				refactors++
				if ok, _, _ := factorBasis(&fw, lu, m, cur, basis); !ok {
					t.Fatalf("run %d step %d: basis reported dependent", ri, si)
				}
			}
			if ok, _, _ := factorBasis(&freshWS, fresh, m, cur, basis); !ok {
				t.Fatalf("run %d step %d: fresh factorization reported dependent", ri, si)
			}
			for trial := 0; trial < 3; trial++ {
				var a []Entry
				for _, r := range rng.Perm(m)[:1+rng.IntN(5)] {
					a = append(a, Entry{Row: r, Coef: rng.Float64()*2 - 1})
				}
				lu.ftranCol(a, w)
				fresh.ftranCol(a, wantW)
				for i := range c {
					c[i] = 0
				}
				for _, pos := range rng.Perm(m)[:1+rng.IntN(5)] {
					c[pos] = rng.Float64()*2 - 1
				}
				lu.btran(c, y)
				fresh.btran(c, wantY)
				for _, chk := range []struct {
					what      string
					got, want []float64
				}{{"FTRAN", w, wantW}, {"BTRAN", y, wantY}} {
					gap := relGap(chk.got, chk.want)
					worst = math.Max(worst, gap)
					if gap > 1e-8 {
						t.Fatalf("run %d step %d (%d updates since the refactorization): %s off by %.3g relative",
							ri, si, lu.nUpdates(), chk.what, gap)
					}
				}
			}
		}
	}
	if updates == 0 {
		t.Fatal("vacuous: no update was applied")
	}
	t.Logf("%d runs, %d updates, %d refactorizations asked for, worst gap %.3g", len(runs), updates, refactors, worst)
}

// BenchmarkBasisUpdate replays the fixture solve's update sequences
// (fixtureUpdateRuns): one op refactorizes each run's start basis,
// untimed, and times FTRAN and update for each of its steps.
// entries/op counts the U and row-eta entries the updates touch, the
// machine-independent cost an update that rebuilt U would multiply; a
// warm factorization must not allocate.
func BenchmarkBasisUpdate(b *testing.B) {
	runs := fixtureUpdateRuns(b)
	var fw luWorkspace
	lu := new(basisLU)
	var cur [][]Entry
	var w []float64
	replay := func() {
		for _, run := range runs {
			b.StopTimer()
			m := run.start.m
			cur = append(cur[:0], run.start.cols...)
			w = growSlice(w, m)
			if ok, _, _ := factorBasis(&fw, lu, m, cur, run.start.basis); !ok {
				b.Fatal("fixture basis reported dependent")
			}
			b.StartTimer()
			for _, st := range run.steps {
				lu.ftranCol(st.col, w)
				cur[st.pos] = st.col
				if !lu.update(st.pos, w) {
					b.StopTimer()
					if ok, _, _ := factorBasis(&fw, lu, m, cur, run.start.basis); !ok {
						b.Fatal("fixture basis reported dependent")
					}
					b.StartTimer()
				}
			}
		}
	}
	replay() // size the buffers
	start := lu.updEntries
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay()
	}
	b.StopTimer()
	b.ReportMetric(float64(lu.updEntries-start)/float64(b.N), "entries/op")
	steps := 0
	for _, run := range runs {
		steps += len(run.steps)
	}
	b.ReportMetric(float64(steps), "updates/op")
}
