package trace

import (
	"math"
	"testing"

	"protean/internal/model"
)

func baseMix() Mix {
	return Mix{
		StrictFrac: 0.5,
		Strict:     model.MustByName("ResNet 50"),
		BEPool:     model.VisionLI(),
	}
}

func TestGenerateConstantRateMatchesMean(t *testing.T) {
	reqs, err := Generate(Config{
		Rate:     Constant(500),
		Mix:      baseMix(),
		Duration: 60,
		Seed:     1,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	got := float64(len(reqs)) / 60
	if math.Abs(got-500)/500 > 0.05 {
		t.Errorf("observed rate %.1f rps, want ≈500", got)
	}
}

func TestGenerateSortedAndInRange(t *testing.T) {
	reqs, err := Generate(Config{Rate: Constant(200), Mix: baseMix(), Duration: 30, Seed: 2})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	prev := 0.0
	seen := make(map[uint64]bool, len(reqs))
	for _, r := range reqs {
		if r.Arrival < prev {
			t.Fatal("arrivals not sorted")
		}
		if r.Arrival < 0 || r.Arrival >= 30 {
			t.Fatalf("arrival %v out of [0, 30)", r.Arrival)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate ID %d", r.ID)
		}
		seen[r.ID] = true
		prev = r.Arrival
	}
}

func TestStrictFraction(t *testing.T) {
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
		mix := baseMix()
		mix.StrictFrac = frac
		reqs, err := Generate(Config{Rate: Constant(400), Mix: mix, Duration: 60, Seed: 3})
		if err != nil {
			t.Fatalf("Generate(frac=%v): %v", frac, err)
		}
		strict := 0
		for _, r := range reqs {
			if r.Strict {
				strict++
			}
		}
		got := float64(strict) / float64(len(reqs))
		if math.Abs(got-frac) > 0.03 {
			t.Errorf("strict fraction = %.3f, want %.2f", got, frac)
		}
	}
}

func TestStrictRequestsUseStrictModel(t *testing.T) {
	reqs, err := Generate(Config{Rate: Constant(300), Mix: baseMix(), Duration: 20, Seed: 4})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	pool := make(map[string]bool)
	for _, m := range model.VisionLI() {
		pool[m.Name()] = true
	}
	for _, r := range reqs {
		if r.Strict && r.Model.Name() != "ResNet 50" {
			t.Fatalf("strict request uses %s", r.Model.Name())
		}
		if !r.Strict && !pool[r.Model.Name()] {
			t.Fatalf("BE request uses %s outside the pool", r.Model.Name())
		}
	}
}

func TestBERotationChangesModelOverTime(t *testing.T) {
	mix := baseMix()
	mix.RotatePeriod = 20
	reqs, err := Generate(Config{Rate: Constant(300), Mix: mix, Duration: 200, Seed: 5})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// Within one rotation slot, all BE requests must share one model.
	slotModels := make(map[int]string)
	distinct := make(map[string]bool)
	for _, r := range reqs {
		if r.Strict {
			continue
		}
		slot := int(r.Arrival / 20)
		if prev, ok := slotModels[slot]; ok && prev != r.Model.Name() {
			t.Fatalf("slot %d mixes BE models %s and %s", slot, prev, r.Model.Name())
		}
		slotModels[slot] = r.Model.Name()
		distinct[r.Model.Name()] = true
	}
	if len(distinct) < 2 {
		t.Errorf("BE model never rotated: %v", distinct)
	}
}

func TestDiurnalRateShape(t *testing.T) {
	fn := Diurnal(1000, DefaultWikiPeakToMean, 120)
	mean := MeanRate(fn, 120)
	if math.Abs(mean-1000)/1000 > 0.01 {
		t.Errorf("mean = %v, want ≈1000", mean)
	}
	peak := 0.0
	for i := 0; i <= 1000; i++ {
		peak = math.Max(peak, fn.at(120*float64(i)/1000))
	}
	wantPeak := 1000 * DefaultWikiPeakToMean
	if math.Abs(peak-wantPeak)/wantPeak > 0.01 {
		t.Errorf("peak = %v, want ≈%v", peak, wantPeak)
	}
}

func TestErraticRateBurstyButMeanPreserving(t *testing.T) {
	const duration = 300
	fn := Erratic(1000, DefaultTwitterPeakToMean, duration, 7)
	mean := MeanRate(fn, duration)
	if math.Abs(mean-1000)/1000 > 0.10 {
		t.Errorf("mean = %v, want ≈1000", mean)
	}
	peak := 0.0
	for i := 0; i <= 4096; i++ {
		peak = math.Max(peak, fn.at(duration*float64(i)/4096))
	}
	if peak/mean < 1.3 {
		t.Errorf("peak:mean = %.2f, want bursty (> 1.3)", peak/mean)
	}
}

func TestScaleToMeanAndPeak(t *testing.T) {
	fn := Diurnal(123, 1.2, 60)
	scaled := ScaleToMean(fn, 5000, 60)
	if got := MeanRate(scaled, 60); math.Abs(got-5000)/5000 > 0.01 {
		t.Errorf("scaled mean = %v, want 5000", got)
	}
	fn2 := Erratic(100, 1.5, 60, 9)
	scaled2 := ScaleToPeak(fn2, 5000, 60)
	peak := 0.0
	for i := 0; i <= 4096; i++ {
		peak = math.Max(peak, scaled2.at(60*float64(i)/4096))
	}
	if math.Abs(peak-5000)/5000 > 0.02 {
		t.Errorf("scaled peak = %v, want 5000", peak)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Rate: Constant(200), Mix: baseMix(), Duration: 10, Seed: 42}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs", i)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	good := baseMix()
	tests := []struct {
		name string
		cfg  Config
	}{
		{"nil rate", Config{Mix: good, Duration: 10}},
		{"zero duration", Config{Rate: Constant(10), Mix: good}},
		{"bad strict frac", Config{Rate: Constant(10), Mix: Mix{StrictFrac: 1.5, Strict: good.Strict}, Duration: 10}},
		{"no strict model", Config{Rate: Constant(10), Mix: Mix{StrictFrac: 0.5}, Duration: 10}},
		{"zero rate", Config{Rate: Constant(0), Mix: good, Duration: 10}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Generate(tt.cfg); err == nil {
				t.Error("Generate succeeded, want error")
			}
		})
	}
}

func TestPureBEMixAllowed(t *testing.T) {
	reqs, err := Generate(Config{
		Rate:     Constant(100),
		Mix:      Mix{StrictFrac: 0, BEPool: model.VisionHI()},
		Duration: 10,
		Seed:     6,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for _, r := range reqs {
		if r.Strict {
			t.Fatal("strict request in 100% BE trace")
		}
	}
}
