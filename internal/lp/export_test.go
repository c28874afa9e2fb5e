package lp

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
