// Package ewma implements the light-weight exponentially weighted moving
// average predictor PROTEAN's GPU Reconfigurator uses to forecast the
// number of best-effort requests arriving in the next monitoring window
// (Algorithm 2, step a; re-purposed from Atoll).
package ewma

import (
	"errors"
	"fmt"
)

// EWMA is an exponentially weighted moving average. The zero value is
// not usable; use New.
type EWMA struct {
	alpha    float64
	value    float64
	observed bool
}

// New returns an EWMA with smoothing factor alpha in (0, 1]. Larger
// alpha weighs recent observations more.
func New(alpha float64) (*EWMA, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("ewma: alpha %v out of (0, 1]", alpha)
	}
	return &EWMA{alpha: alpha}, nil
}

// MustNew is New for known-good literals; it panics on error.
func MustNew(alpha float64) *EWMA {
	e, err := New(alpha)
	if err != nil {
		panic(err)
	}
	return e
}

// ErrNoObservations is returned by Predict before any Observe call.
var ErrNoObservations = errors.New("ewma: no observations yet")

// Observe folds a new sample into the average.
func (e *EWMA) Observe(x float64) {
	if !e.observed {
		e.value = x
		e.observed = true
		return
	}
	// The conversions round each product, so no architecture fuses them
	// into a multiply-add.
	e.value = float64(e.alpha*x) + float64((1-e.alpha)*e.value)
}

// Predict returns the current smoothed estimate.
func (e *EWMA) Predict() (float64, error) {
	if !e.observed {
		return 0, ErrNoObservations
	}
	return e.value, nil
}

// PredictOr returns the current estimate, or fallback before any
// observation.
func (e *EWMA) PredictOr(fallback float64) float64 {
	if !e.observed {
		return fallback
	}
	return e.value
}
