package mathx

import "math"

// lnGamma is the natural log of the Gamma function.
func lnGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// RegIncBeta computes the regularized incomplete beta function I_x(a, b)
// via the continued-fraction expansion (Numerical Recipes style). It is
// the CDF of the Beta(a, b) distribution at x.
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	ln := lnGamma(a+b) - lnGamma(a) - lnGamma(b) + float64(a*math.Log(x)) + float64(b*math.Log(1-x))
	front := math.Exp(ln)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta
// function by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + float64(aa*d)
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + float64(aa*d)
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := float64(d * c)
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// StudentTCDF returns P(T <= t) for Student's t distribution with nu
// degrees of freedom.
//
//lint:ignore deadcode reference for the Welch p-value in metrics' TestWelchTSmallPValuesResolvable
func StudentTCDF(t, nu float64) float64 {
	if nu <= 0 {
		return math.NaN()
	}
	x := nu / (nu + t*t)
	p := 0.5 * RegIncBeta(nu/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// StudentTSF is the survival function P(T > t) of Student's t
// distribution with nu degrees of freedom. Unlike 1 − StudentTCDF(t, nu),
// which cancels to exactly 0 once the CDF rounds to 1 (|t| ≳ 9 already
// does at small nu), the tail is computed directly from the regularized
// incomplete beta function — for t > 0 the argument x = nu/(nu+t²) is
// small, which is RegIncBeta's direct (non-complemented) branch — so
// extreme statistics yield tiny but nonzero probabilities down to the
// underflow limit.
func StudentTSF(t, nu float64) float64 {
	if nu <= 0 {
		return math.NaN()
	}
	x := nu / (nu + float64(t*t))
	tail := float64(0.5 * RegIncBeta(nu/2, 0.5, x)) // P(T > |t|) by symmetry
	if t >= 0 {
		return tail
	}
	return 1 - tail
}
