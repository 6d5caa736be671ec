// Package trace generates the request arrival processes of §5: a
// Wikipedia-like diurnal trace (peak:mean ≈ 316:303), a Twitter-like
// erratic trace (peak:mean ≈ 4561:2969), and constant-rate traces for the
// motivational experiments. Arrivals are a non-homogeneous Poisson
// process sampled by thinning, mixed into strict and best-effort (BE)
// request streams with a rotating BE model (every ~20 s).
package trace

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"protean/internal/model"
	"protean/internal/sim"
)

// Request is one user invocation arriving at the gateway.
type Request struct {
	// ID is unique within one generated trace.
	ID uint64
	// Tenant is the owning tenant id for live control-plane traffic;
	// batch experiment traces leave it empty.
	Tenant string
	// Model is the invoked inference model.
	Model *model.Model
	// Strict marks requests with a hard SLO deadline; others are best
	// effort.
	Strict bool
	// Arrival is the virtual arrival time in seconds.
	Arrival float64
}

// RateFn maps virtual time to an instantaneous request rate (rps). It
// carries a floor that no evaluation falls below: !(at(t) < floor) for
// every t. Thinning accepts a candidate whose draw is at or below the
// floor without evaluating the rate, a decision the evaluation would
// have made the same way. A NaN floor promises nothing and never skips
// an evaluation. The zero RateFn has no rate; NewStream rejects it.
type RateFn struct {
	at    func(t float64) float64
	floor float64
}

// IsZero reports whether r is the zero RateFn, which has no rate.
func (r RateFn) IsZero() bool { return r.at == nil }

// Constant returns a flat rate.
func Constant(rps float64) RateFn {
	return RateFn{at: func(float64) float64 { return rps }, floor: rps}
}

// Diurnal returns a Wikipedia-like smooth diurnal rate: a sinusoid around
// mean with the given peak-to-mean ratio over one period. The paper's
// Wiki trace has peak:mean ≈ 316:303 ≈ 1.04.
//
// The floor is max(0, mean−|amp|): |sin| ≤ 1 and rounding is monotone,
// so the rounded amp·sin is at least −|amp| and the rounded sum at least
// the rounded mean−|amp|.
func Diurnal(mean, peakToMean, period float64) RateFn {
	amp := mean * (peakToMean - 1)
	return RateFn{
		at: func(t float64) float64 {
			v := mean + float64(amp*math.Sin(2*math.Pi*t/period))
			return math.Max(0, v)
		},
		floor: math.Max(0, mean-math.Abs(amp)),
	}
}

// DefaultWikiPeakToMean is the Wiki trace's peak:mean ratio (316:303).
const DefaultWikiPeakToMean = 316.0 / 303.0

// DefaultTwitterPeakToMean is the Twitter trace's peak:mean ratio
// (4561:2969).
const DefaultTwitterPeakToMean = 4561.0 / 2969.0

// Erratic returns a Twitter-like bursty rate: a base load with randomly
// placed surges reaching peakToMean × mean. Spike placement is
// deterministic in seed.
//
// Rate evaluation is O(log nSpikes): the spikes are swept once into a
// sorted interval index of piecewise-constant surge factors, and each
// call binary-searches the segment containing t. A multi-day trace has
// thousands of spikes and the rate function is evaluated per candidate
// arrival, so the naive per-call scan dominated streaming generation.
// The returned values are bitwise identical to the scan: within a
// segment the rate is base × max(1, max active factor), and for a
// positive base the product of the maximum equals the maximum of the
// products. The sweep folds only the spikes active at each edge, so
// building the index costs O(edges × active spikes).
func Erratic(mean, peakToMean, duration float64, seed int64) RateFn {
	rng := sim.NewRand(seed)
	type spike struct{ start, dur, factor float64 }
	// Roughly 20% of the time is spent in surges; the base rate is set
	// so the average stays ≈ mean.
	nSpikes := int(math.Max(1, duration/30))
	spikes := make([]spike, 0, nSpikes)
	for i := 0; i < nSpikes; i++ {
		spikes = append(spikes, spike{
			start:  rng.Float64() * duration,
			dur:    2 + float64(rng.Float64()*6),
			factor: 1 + float64((peakToMean-1)*(0.6+float64(0.4*rng.Float64()))),
		})
	}
	spikeTime := 0.0
	spikeWeight := 0.0
	for _, sp := range spikes {
		spikeTime += sp.dur
		spikeWeight += float64(sp.dur * sp.factor)
	}
	// base solves base*((duration - spikeTime) + spikeWeight) = mean*duration.
	denom := (duration - spikeTime) + spikeWeight
	base := mean
	if denom > 0 {
		base = mean * duration / denom
	}

	// Sweep the spike intervals into sorted segments. A spike is active
	// on [start, start+dur), so segment boundaries are exactly the spike
	// starts and ends; between consecutive boundaries the active set —
	// and therefore the max factor — is constant.
	type edge struct {
		at    float64
		open  bool
		spike int
	}
	edges := make([]edge, 0, 2*len(spikes))
	for i, sp := range spikes {
		edges = append(edges, edge{at: sp.start, open: true, spike: i})
		edges = append(edges, edge{at: sp.start + sp.dur, open: false, spike: i})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	segStart := []float64{math.Inf(-1)}
	segRate := []float64{base}
	// active holds the indices of the spikes covering the current
	// segment, ascending, so each segment folds only those, in the
	// order the scan visits them.
	var active []int
	for i := 0; i < len(edges); {
		at := edges[i].at
		//lint:ignore floateq grouping bitwise-equal boundaries; a near-tie split into two segments yields the same rate function
		for i < len(edges) && edges[i].at == at {
			e := edges[i]
			k, found := slices.BinarySearch(active, e.spike)
			switch {
			case e.open && !found:
				active = slices.Insert(active, k, e.spike)
			case !e.open && found:
				active = slices.Delete(active, k, k+1)
			}
			i++
		}
		// v = base, then max with base*factor per active spike — the
		// identical accumulation the per-call scan performed, so the
		// segment rate is bitwise what the scan would have produced.
		v := base
		for _, j := range active {
			v = math.Max(v, base*spikes[j].factor)
		}
		segStart = append(segStart, at)
		segRate = append(segRate, v)
	}
	return RateFn{
		at: func(t float64) float64 {
			// Last segment starting at or before t.
			i := sort.SearchFloat64s(segStart, t)
			if i == len(segStart) || segStart[i] > t {
				i--
			}
			return segRate[i]
		},
		// Every segment rate folds math.Max over base, so none is below it.
		floor: base,
	}
}

// Mix configures the strict/BE composition of a trace.
type Mix struct {
	// StrictFrac is the fraction of strict requests (0.5 by default in
	// the paper, 0.75/0.25 in the skew study, 1 or 0 in the extremes).
	StrictFrac float64
	// Strict is the model all strict requests invoke.
	Strict *model.Model
	// BEPool is the set of models BE requests rotate over. If empty, BE
	// requests also invoke Strict.
	BEPool []*model.Model
	// RotatePeriod is how often the active BE model changes (~20 s).
	RotatePeriod float64
}

// Validate checks the mix configuration.
func (m Mix) Validate() error {
	if m.StrictFrac < 0 || m.StrictFrac > 1 {
		return fmt.Errorf("trace: strict fraction %v out of [0, 1]", m.StrictFrac)
	}
	if m.Strict == nil && m.StrictFrac > 0 {
		return errors.New("trace: strict model required when strict fraction > 0")
	}
	if m.StrictFrac < 1 && m.Strict == nil && len(m.BEPool) == 0 {
		return errors.New("trace: BE pool or strict model required")
	}
	return nil
}

// Config describes one trace to generate.
type Config struct {
	// Rate is the arrival-rate profile.
	Rate RateFn
	// Mix composes strict and BE streams.
	Mix Mix
	// Duration is the trace length in seconds.
	Duration float64
	// Seed drives arrival sampling and BE rotation.
	Seed int64
}

// Generate samples the arrival process and returns requests sorted by
// arrival time. It runs Stream's thinning loop to the horizon: draining
// a fresh NewStream(cfg) yields the identical sequence one request at
// a time without materialising the slice. Each request is written once,
// straight into the slice.
//
// The slice is allocated once, sized to the expected request count Λ
// (the mean rate times the duration) plus six Poisson standard
// deviations, so a trace almost never outgrows it.
func Generate(cfg Config) ([]Request, error) {
	st, err := NewStream(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]Request, 0, expectedCap(cfg))
	for {
		t, m, strict, ok := st.next()
		if !ok {
			return out, nil
		}
		// Fill the zeroed slot field by field: building a Request and
		// copying it in would move its pointers under a bulk write
		// barrier whenever the collector runs.
		n := len(out)
		out = slices.Grow(out, 1)[:n+1]
		r := &out[n]
		r.ID, r.Model, r.Strict, r.Arrival = uint64(n), m, strict, t
	}
}

// maxReserve caps Generate's up-front reservation, in requests (3 GiB of
// Request values); a larger expected count is implausible for a
// materialised trace and gets no reservation.
const maxReserve = 1 << 26

// expectedCap returns Λ + 6√Λ + 16 requests for Λ = MeanRate · Duration,
// or 0 when that is not finite or exceeds maxReserve.
func expectedCap(cfg Config) int {
	lambda := float64(MeanRate(cfg.Rate, cfg.Duration) * cfg.Duration)
	n := lambda + float64(6*math.Sqrt(lambda)) + 16
	if !(n >= 0 && n <= maxReserve) {
		return 0
	}
	return int(n)
}

// peakRate estimates the maximum of fn over [0, duration] on a fine grid.
func peakRate(fn RateFn, duration float64) float64 {
	const samples = 4096
	maxV := 0.0
	for i := 0; i <= samples; i++ {
		v := fn.at(duration * float64(i) / samples)
		maxV = math.Max(maxV, v)
	}
	// Small headroom so thinning stays valid between grid points.
	return maxV * 1.05
}

// MeanRate estimates the average of fn over [0, duration].
func MeanRate(fn RateFn, duration float64) float64 {
	const samples = 4096
	sum := 0.0
	for i := 0; i < samples; i++ {
		sum += fn.at(duration * (float64(i) + 0.5) / samples)
	}
	return sum / samples
}

// ScaleToMean rescales fn so its average over [0, duration] equals
// target, the way §5 scales the Wiki trace to a 5000 rps mean.
func ScaleToMean(fn RateFn, target, duration float64) RateFn {
	mean := MeanRate(fn, duration)
	if mean <= 0 {
		return fn
	}
	return scale(fn, target/mean)
}

// ScaleToPeak rescales fn so its maximum over [0, duration] equals
// target, the way §5 scales the Twitter trace to a 5000 rps peak.
func ScaleToPeak(fn RateFn, target, duration float64) RateFn {
	peak := peakRate(fn, duration) / 1.05
	if peak <= 0 {
		return fn
	}
	return scale(fn, target/peak)
}

// scale returns k·fn. Rounded multiplication by a k ≥ 0 is monotone, so
// k·floor bounds every k·fn(t); a negative or NaN k gets no floor.
func scale(fn RateFn, k float64) RateFn {
	floor := math.Inf(-1)
	if k >= 0 {
		floor = k * fn.floor
	}
	at := fn.at
	return RateFn{at: func(t float64) float64 { return k * at(t) }, floor: floor}
}
