package metrics

import (
	"math"

	"protean/internal/mathx"
)

// WelchResult reports a two-sample Welch's t-test.
type WelchResult struct {
	// T is the t statistic.
	T float64
	// DF is the Welch–Satterthwaite degrees of freedom.
	DF float64
	// P is the two-sided p-value.
	P float64
}

// meanVar returns the sample mean and unbiased variance.
func meanVar(xs []float64) (mean, variance float64) {
	n := float64(len(xs))
	for _, x := range xs {
		mean += x
	}
	mean /= n
	for _, x := range xs {
		d := x - mean
		variance += float64(d * d)
	}
	if len(xs) > 1 {
		variance /= n - 1
	}
	return mean, variance
}

// WelchT performs Welch's unequal-variance t-test between samples a and
// b, as the paper uses to report ~0.0 p-values between schemes (§7).
func WelchT(a, b []float64) (WelchResult, error) {
	if len(a) < 2 || len(b) < 2 {
		return WelchResult{}, ErrTooFewSamples
	}
	ma, va := meanVar(a)
	mb, vb := meanVar(b)
	na, nb := float64(len(a)), float64(len(b))
	sa, sb := va/na, vb/nb
	se := math.Sqrt(sa + sb)
	if se == 0 {
		// Identical constant samples: no evidence of difference.
		//lint:ignore floateq zero variance means both samples are exact constants; equality here is exact by construction
		if ma == mb {
			return WelchResult{T: 0, DF: na + nb - 2, P: 1}, nil
		}
		return WelchResult{T: math.Inf(sign(ma - mb)), DF: na + nb - 2, P: 0}, nil
	}
	t := (ma - mb) / se
	df := (sa + sb) * (sa + sb) / (sa*sa/(na-1) + sb*sb/(nb-1))
	// The survival-function path keeps small p-values resolvable: the
	// algebraically equivalent 2·(1 − CDF) cancels to exactly 0 for
	// moderately large |t|, collapsing every strong result to "0".
	p := 2 * mathx.StudentTSF(math.Abs(t), df)
	if p > 1 {
		p = 1
	}
	return WelchResult{T: t, DF: df, P: p}, nil
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// CohenD returns Cohen's d effect size between samples a and b using the
// pooled standard deviation.
func CohenD(a, b []float64) (float64, error) {
	if len(a) < 2 || len(b) < 2 {
		return 0, ErrTooFewSamples
	}
	ma, va := meanVar(a)
	mb, vb := meanVar(b)
	na, nb := float64(len(a)), float64(len(b))
	pooled := (float64((na-1)*va) + float64((nb-1)*vb)) / (na + nb - 2)
	if pooled == 0 {
		//lint:ignore floateq zero pooled variance means both samples are exact constants; equality here is exact by construction
		if ma == mb {
			return 0, nil
		}
		return math.Inf(sign(ma - mb)), nil
	}
	return (ma - mb) / math.Sqrt(pooled), nil
}

// MeanCI95 returns the sample mean and the half-width of its 95%
// confidence interval (normal approximation, appropriate for the large
// per-scheme sample counts of the evaluation).
func MeanCI95(xs []float64) (mean, half float64, err error) {
	if len(xs) < 2 {
		return 0, 0, ErrTooFewSamples
	}
	m, v := meanVar(xs)
	return m, 1.959964 * math.Sqrt(v/float64(len(xs))), nil
}
