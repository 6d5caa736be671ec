package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (the
// "exclusive" default), so spreads computed here and by that function
// agree. A single value is its own quartiles; no values give NaN.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise a bound has to exceed.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// tailPercentiles is the ladder supportedPercentile climbs.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// supportedPercentile returns the highest percentile of the ladder that
// has at least ten of n samples beyond it, or 0 when even the median
// lacks ten: a tail figure resting on fewer samples is noise.
func supportedPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		// In per-mille, so the comparison is exact integer arithmetic.
		if beyond := n * (1000 - int(math.Round(p*10))); beyond >= 10*1000 {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// verdict is the outcome of comparing one metric between two commits.
type verdict string

const (
	better     verdict = "better"
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares head against base for one metric. A median that moved
// by more than the bound in the metric's bad direction is worse, in its
// good direction better; otherwise same. When either side's spread
// exceeds the bound the medians cannot resolve a change of that size,
// so the verdict is unresolved unless every head value beats every base
// value.
func judge(def metricDef, base, head []float64) verdict {
	if len(base) == 0 || len(head) == 0 {
		return unresolved
	}
	sign := 1.0 // positive change = worse
	if def.Better == "higher" {
		sign = -1
	}
	if spread(base) > def.Bound || spread(head) > def.Bound {
		worstHead := slicesMax(head, sign)
		bestBase := slicesMax(base, -sign)
		if sign*(worstHead-bestBase) < 0 {
			return better
		}
		return unresolved
	}
	mb, mh := median(base), median(head)
	if mb == 0 {
		if mh == 0 {
			return same
		}
		return unresolved
	}
	rel := sign * (mh - mb) / math.Abs(mb)
	switch {
	case rel > def.Bound:
		return worse
	case rel < -def.Bound:
		return better
	}
	return same
}

// slicesMax returns the largest of sign·x over xs, unscaled: the worst
// value when sign points at "worse".
func slicesMax(xs []float64, sign float64) float64 {
	best := xs[0]
	for _, x := range xs[1:] {
		if sign*x > sign*best {
			best = x
		}
	}
	return best
}
