package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"protean/internal/gpu"
	"protean/internal/mathx"
)

func add(r *Recorder, strict bool, latency, slo float64, weight int) {
	r.Add(Sample{
		Model:   "m",
		Strict:  strict,
		Latency: latency,
		SLO:     slo,
		Weight:  weight,
		Breakdown: gpu.Breakdown{
			MinPossible:  latency / 2,
			Interference: latency / 2,
		},
	})
}

func TestSLOCompliance(t *testing.T) {
	var r Recorder
	add(&r, true, 0.1, 0.3, 100) // meets
	add(&r, true, 0.5, 0.3, 100) // violates
	add(&r, false, 9.0, 0, 100)  // BE ignored
	if got := r.SLOCompliance(); got != 0.5 {
		t.Errorf("SLOCompliance = %v, want 0.5", got)
	}
}

func TestSLOComplianceNoStrictSamples(t *testing.T) {
	var r Recorder
	add(&r, false, 0.1, 0, 1)
	if got := r.SLOCompliance(); !math.IsNaN(got) {
		t.Errorf("SLOCompliance = %v, want NaN", got)
	}
}

func TestWeightedPercentile(t *testing.T) {
	var r Recorder
	add(&r, true, 0.010, 1, 99) // 99 fast requests
	add(&r, true, 1.000, 1, 1)  // 1 slow request
	if got := r.Percentile(50); got != 0.010 {
		t.Errorf("P50 = %v, want 0.010", got)
	}
	if got := r.Percentile(99); got != 0.010 {
		t.Errorf("P99 = %v, want 0.010 (weight boundary)", got)
	}
	if got := r.Percentile(100); got != 1.0 {
		t.Errorf("P100 = %v, want 1.0", got)
	}
}

func TestPercentileEmpty(t *testing.T) {
	var r Recorder
	if got := r.Percentile(99); !math.IsNaN(got) {
		t.Errorf("P99 of empty = %v, want NaN", got)
	}
	if got := r.Mean(); !math.IsNaN(got) {
		t.Errorf("Mean of empty = %v, want NaN", got)
	}
}

func TestMeanWeighted(t *testing.T) {
	var r Recorder
	add(&r, true, 1, 9, 1)
	add(&r, true, 2, 9, 3)
	if got, want := r.Mean(), (1.0+6.0)/4.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Mean = %v, want %v", got, want)
	}
}

func TestFiltersAndMerge(t *testing.T) {
	var a, b Recorder
	add(&a, true, 0.1, 1, 2)
	add(&b, false, 0.2, 0, 3)
	a.Merge(&b)
	if got := a.Requests(); got != 5 {
		t.Errorf("Requests = %d, want 5", got)
	}
	if got := a.Strict().Requests(); got != 2 {
		t.Errorf("strict Requests = %d, want 2", got)
	}
	if got := a.BestEffort().Requests(); got != 3 {
		t.Errorf("BE Requests = %d, want 3", got)
	}
	if got := a.ForModel("m").Len(); got != 2 {
		t.Errorf("ForModel = %d samples, want 2", got)
	}
	if got := a.ForModel("x").Len(); got != 0 {
		t.Errorf("ForModel(x) = %d, want 0", got)
	}
}

func TestBreakdownAtPercentile(t *testing.T) {
	var r Recorder
	r.Add(Sample{Strict: true, Latency: 1, Weight: 1, Breakdown: gpu.Breakdown{MinPossible: 1}})
	r.Add(Sample{Strict: true, Latency: 10, Weight: 1, Breakdown: gpu.Breakdown{MinPossible: 2, Queue: 8}})
	b := r.BreakdownAtPercentile(99)
	if b.Queue != 8 {
		t.Errorf("P99 breakdown queue = %v, want 8 (slow sample)", b.Queue)
	}
	var empty Recorder
	if got := empty.BreakdownAtPercentile(99); got != (gpu.Breakdown{}) {
		t.Errorf("empty breakdown = %+v", got)
	}
}

func TestThroughput(t *testing.T) {
	var r Recorder
	add(&r, true, 0.1, 1, 800)
	add(&r, false, 0.1, 0, 200)
	if got := r.Throughput(10, 8, 0); got != 10 {
		t.Errorf("Throughput = %v, want 10 strict req/GPU/s", got)
	}
	if got := r.TotalThroughput(10, 8, 0); got != 12.5 {
		t.Errorf("TotalThroughput = %v, want 12.5", got)
	}
	if got := r.Throughput(0, 8, 0); got != 0 {
		t.Errorf("Throughput with zero duration = %v", got)
	}
}

func TestThroughputHorizonExcludesDrain(t *testing.T) {
	var r Recorder
	r.Add(Sample{Strict: true, Latency: 0.1, SLO: 1, Weight: 500, Completed: 30})
	r.Add(Sample{Strict: true, Latency: 0.1, SLO: 1, Weight: 500, Completed: 90})
	// Horizon 60 s: only the first batch counts.
	if got := r.Throughput(50, 1, 60); got != 10 {
		t.Errorf("Throughput = %v, want 10 (drained tail excluded)", got)
	}
	// Zero horizon keeps everything.
	if got := r.Throughput(50, 1, 0); got != 20 {
		t.Errorf("Throughput = %v, want 20", got)
	}
}

func TestSummarize(t *testing.T) {
	var r Recorder
	add(&r, true, 0.1, 0.3, 50)
	add(&r, true, 0.4, 0.3, 50)
	add(&r, false, 5.0, 0, 100)
	s := r.Summarize()
	if s.SLOCompliance != 0.5 {
		t.Errorf("compliance = %v, want 0.5", s.SLOCompliance)
	}
	if s.Requests != 100 {
		t.Errorf("requests = %d, want 100 (strict only)", s.Requests)
	}
	if s.P99 != 0.4 {
		t.Errorf("P99 = %v, want 0.4 (BE excluded)", s.P99)
	}
	if s.String() == "" {
		t.Error("empty summary string")
	}
}

func TestZeroWeightNormalized(t *testing.T) {
	var r Recorder
	r.Add(Sample{Strict: true, Latency: 1, SLO: 2})
	if got := r.Requests(); got != 1 {
		t.Errorf("Requests = %d, want 1", got)
	}
}

// Property: Percentile is monotone in p and bounded by min/max latency.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var r Recorder
		minL, maxL := math.Inf(1), math.Inf(-1)
		for i, v := range raw {
			l := float64(v) / 100
			minL, maxL = math.Min(minL, l), math.Max(maxL, l)
			r.Add(Sample{Strict: true, Latency: l, SLO: 1, Weight: 1 + i%4})
		}
		prev := math.Inf(-1)
		for p := 5.0; p <= 100; p += 5 {
			v := r.Percentile(p)
			if v < prev || v < minL || v > maxL {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWelchTDistinguishesSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var a, b []float64
	for i := 0; i < 200; i++ {
		a = append(a, 1.0+rng.NormFloat64()*0.1)
		b = append(b, 2.0+rng.NormFloat64()*0.1)
	}
	res, err := WelchT(a, b)
	if err != nil {
		t.Fatalf("WelchT: %v", err)
	}
	if res.P > 1e-6 {
		t.Errorf("p = %v, want ~0 for clearly different samples", res.P)
	}
	if res.T >= 0 {
		t.Errorf("t = %v, want negative (a < b)", res.T)
	}
}

func TestWelchTSameDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var a, b []float64
	for i := 0; i < 500; i++ {
		a = append(a, rng.NormFloat64())
		b = append(b, rng.NormFloat64())
	}
	res, err := WelchT(a, b)
	if err != nil {
		t.Fatalf("WelchT: %v", err)
	}
	if res.P < 0.001 {
		t.Errorf("p = %v, same-distribution samples should rarely be this significant", res.P)
	}
}

func TestWelchTSmallPValuesResolvable(t *testing.T) {
	// Regression: p = 2·(1 − CDF(|t|)) cancelled to exactly 0 for
	// moderately large |t|, so stats tables could not tell p ≈ 1e-12
	// from a degenerate true 0. Two tight, well-separated samples give
	// an enormous t whose p must come out tiny but strictly positive.
	var a, b []float64
	for i := 0; i < 30; i++ {
		a = append(a, 1.0+float64(i)*1e-4)
		b = append(b, 2.0+float64(i)*1e-4)
	}
	res, err := WelchT(a, b)
	if err != nil {
		t.Fatalf("WelchT: %v", err)
	}
	if !(res.P > 0) {
		t.Fatalf("p = %v, want > 0 (survival path must not cancel)", res.P)
	}
	if res.P > 1e-12 {
		t.Errorf("p = %v, want < 1e-12 for |t| = %v", res.P, math.Abs(res.T))
	}
	// Against the moderate regime, the survival path must agree with the
	// old complement formula where that is still well conditioned.
	rng := rand.New(rand.NewSource(7))
	a, b = nil, nil
	for i := 0; i < 50; i++ {
		a = append(a, rng.NormFloat64())
		b = append(b, 0.3+rng.NormFloat64())
	}
	res, err = WelchT(a, b)
	if err != nil {
		t.Fatalf("WelchT: %v", err)
	}
	complement := 2 * (1 - mathx.StudentTCDF(math.Abs(res.T), res.DF))
	if math.Abs(res.P-complement) > 1e-9 {
		t.Errorf("moderate-t p = %v, want %v (complement formula)", res.P, complement)
	}
}

func TestWelchTEdgeCases(t *testing.T) {
	if _, err := WelchT([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("too-few samples accepted")
	}
	res, err := WelchT([]float64{5, 5, 5}, []float64{5, 5, 5})
	if err != nil {
		t.Fatalf("WelchT: %v", err)
	}
	if res.P != 1 {
		t.Errorf("identical constants p = %v, want 1", res.P)
	}
	res, err = WelchT([]float64{5, 5, 5}, []float64{7, 7, 7})
	if err != nil {
		t.Fatalf("WelchT: %v", err)
	}
	if res.P != 0 {
		t.Errorf("different constants p = %v, want 0", res.P)
	}
}

func TestCohenD(t *testing.T) {
	// Two unit-variance samples two means apart → d ≈ 2.
	rng := rand.New(rand.NewSource(4))
	var a, b []float64
	for i := 0; i < 2000; i++ {
		a = append(a, rng.NormFloat64())
		b = append(b, 2+rng.NormFloat64())
	}
	d, err := CohenD(b, a)
	if err != nil {
		t.Fatalf("CohenD: %v", err)
	}
	if math.Abs(d-2) > 0.15 {
		t.Errorf("d = %v, want ≈2", d)
	}
	if _, err := CohenD([]float64{1}, a); err == nil {
		t.Error("too-few samples accepted")
	}
	if d, _ := CohenD([]float64{3, 3}, []float64{3, 3}); d != 0 {
		t.Errorf("identical constants d = %v, want 0", d)
	}
}

func TestMeanCI95(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var xs []float64
	for i := 0; i < 10000; i++ {
		xs = append(xs, 10+rng.NormFloat64())
	}
	mean, half, err := MeanCI95(xs)
	if err != nil {
		t.Fatalf("MeanCI95: %v", err)
	}
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("mean = %v, want ≈10", mean)
	}
	wantHalf := 1.96 / math.Sqrt(10000)
	if math.Abs(half-wantHalf)/wantHalf > 0.1 {
		t.Errorf("CI half-width = %v, want ≈%v", half, wantHalf)
	}
	if _, _, err := MeanCI95([]float64{1}); err == nil {
		t.Error("too-few samples accepted")
	}
}

func TestDollarsPer1k(t *testing.T) {
	if got := DollarsPer1k(50, 100000); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("DollarsPer1k(50, 100000) = %v, want 0.5", got)
	}
	if got := DollarsPer1k(12, 500); math.Abs(got-24) > 1e-12 {
		t.Errorf("DollarsPer1k(12, 500) = %v, want 24", got)
	}
	if got := DollarsPer1k(12, 0); got != 0 {
		t.Errorf("DollarsPer1k with no completions = %v, want 0", got)
	}
}
