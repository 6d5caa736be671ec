package mathx

import "math"

// DefaultTolerance is the relative tolerance used by AlmostEqual. It is
// generous enough to absorb the rounding drift of the simulator's
// float64 time and rate arithmetic while still separating genuinely
// different values.
const DefaultTolerance = 1e-9

// AlmostEqual reports whether a and b are equal within
// DefaultTolerance. It is the comparison the floateq lint rule points
// at: exact float equality in scheduling or SLO accounting is a latent
// nondeterminism once values come out of arithmetic rather than
// literals.
//
//lint:ignore deadcode the helper the floateq analyzer recommends; TestAlmostEqual covers it
func AlmostEqual(a, b float64) bool {
	return AlmostEqualTol(a, b, DefaultTolerance)
}

// AlmostEqualTol reports whether |a-b| <= tol·max(1, |a|, |b|): an
// absolute comparison near zero sliding into a relative one for large
// magnitudes. NaN compares unequal to everything; infinities are equal
// only to themselves.
//
//lint:ignore deadcode the helper the floateq analyzer recommends; TestAlmostEqualTolWidens covers it
func AlmostEqualTol(a, b, tol float64) bool {
	//lint:ignore floateq the exact fast path makes infinities and literal copies compare equal before any arithmetic
	if a == b {
		return true
	}
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}
