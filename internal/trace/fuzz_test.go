package trace

import (
	"math"
	"testing"

	"protean/internal/model"
)

// FuzzGenerate drives the arrival generator with arbitrary seeds, rates
// and durations and checks the invariants every consumer relies on:
// arrivals sorted strictly ascending inside [0, duration), sequential
// IDs, no arrivals where the rate function is zero (thinning), and a
// total count bounded by the rate envelope.
//
// Run with: go test -fuzz FuzzGenerate ./internal/trace
func FuzzGenerate(f *testing.F) {
	f.Add(int64(1), 100.0, 50.0, 30.0, 0.5)
	f.Add(int64(42), 9000.0, 1.0, 60.0, 0.0)
	f.Add(int64(-7), 0.3, 2000.0, 5.0, 1.0)
	f.Add(int64(0), 10.0, 10.0, 119.0, 0.25)
	f.Fuzz(func(t *testing.T, seed int64, r1, r2, dur, strictFrac float64) {
		// Clamp the fuzzed inputs into the generator's domain.
		r1 = clampFinite(r1, 0.1, 2000)
		r2 = clampFinite(r2, 0.1, 2000)
		dur = clampFinite(dur, 1, 120)
		strictFrac = clampFinite(strictFrac, 0, 1)

		// Piecewise rate with a deliberate dead window in the middle
		// third: thinning must produce no arrivals there.
		third := dur / 3
		rateAt := func(x float64) float64 {
			switch {
			case x < third:
				return r1
			case x < 2*third:
				return 0
			default:
				return r2
			}
		}
		rate := RateFn{at: rateAt, floor: math.NaN()}
		strict := model.MustByName("ResNet 50")
		pool := []*model.Model{model.MustByName("BERT"), model.MustByName("GPT-2")}
		reqs, err := Generate(Config{
			Rate:     rate,
			Mix:      Mix{StrictFrac: strictFrac, Strict: strict, BEPool: pool},
			Duration: dur,
			Seed:     seed,
		})
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}

		prev := math.Inf(-1)
		for i, r := range reqs {
			if r.Arrival < 0 || r.Arrival >= dur {
				t.Fatalf("request %d arrives at %v outside [0, %v)", i, r.Arrival, dur)
			}
			if r.Arrival <= prev {
				t.Fatalf("arrivals not strictly ascending: %v after %v", r.Arrival, prev)
			}
			prev = r.Arrival
			if r.ID != uint64(i) {
				t.Fatalf("request %d has ID %d, want sequential", i, r.ID)
			}
			if rateAt(r.Arrival) == 0 {
				t.Fatalf("request %d arrives at %v inside the zero-rate window", i, r.Arrival)
			}
			if r.Model == nil {
				t.Fatalf("request %d has no model", i)
			}
			if r.Strict && r.Model != strict {
				t.Fatalf("strict request %d invokes %q, want the strict model", i, r.Model.Name())
			}
			if !r.Strict && r.Model != pool[0] && r.Model != pool[1] {
				t.Fatalf("BE request %d invokes %q, not from the pool", i, r.Model.Name())
			}
			if strictFrac == 0 && r.Strict {
				t.Fatalf("request %d strict despite StrictFrac 0", i)
			}
			if strictFrac == 1 && !r.Strict {
				t.Fatalf("request %d best-effort despite StrictFrac 1", i)
			}
		}

		// The thinned process realizes at most the rate integral; allow
		// 8 sigma of Poisson spread plus slack for tiny lambda.
		lambda := (r1 + r2) * third
		if limit := lambda + 8*math.Sqrt(lambda) + 30; float64(len(reqs)) > limit {
			t.Fatalf("%d arrivals exceed the rate envelope (integral %.1f, limit %.1f)",
				len(reqs), lambda, limit)
		}

		// Determinism: the same config replays to the same trace.
		again, err := Generate(Config{
			Rate:     rate,
			Mix:      Mix{StrictFrac: strictFrac, Strict: strict, BEPool: pool},
			Duration: dur,
			Seed:     seed,
		})
		if err != nil {
			t.Fatalf("Generate (replay): %v", err)
		}
		if len(again) != len(reqs) {
			t.Fatalf("replay produced %d arrivals, first run %d", len(again), len(reqs))
		}
		for i := range again {
			if again[i] != reqs[i] {
				t.Fatalf("replay diverges at request %d", i)
			}
		}

		// Stream equivalence: the pull-based generator yields the
		// byte-identical sequence (IDs, models, arrivals), including a
		// stop at an arbitrary mid-stream point and a later resume.
		st, err := NewStream(Config{
			Rate:     rate,
			Mix:      Mix{StrictFrac: strictFrac, Strict: strict, BEPool: pool},
			Duration: dur,
			Seed:     seed,
		})
		if err != nil {
			t.Fatalf("NewStream: %v", err)
		}
		pause := len(reqs) / 3
		for i := range reqs {
			if i == pause {
				// Mid-stream stop/resume: state is self-contained, so an
				// unrelated stream advancing in between must not perturb
				// the remainder of the sequence.
				o, err := NewStream(Config{
					Rate:     Constant(50),
					Mix:      Mix{StrictFrac: strictFrac, Strict: strict, BEPool: pool},
					Duration: 5,
					Seed:     seed + 1,
				})
				if err != nil {
					t.Fatalf("NewStream (interleaved): %v", err)
				}
				for {
					if _, ok := o.Next(); !ok {
						break
					}
				}
			}
			got, ok := st.Next()
			if !ok {
				t.Fatalf("stream ended at request %d, Generate produced %d", i, len(reqs))
			}
			if got != reqs[i] {
				t.Fatalf("stream diverges from Generate at request %d: %+v != %+v", i, got, reqs[i])
			}
		}
		if _, ok := st.Next(); ok {
			t.Fatalf("stream yielded a request past the Generate horizon")
		}
	})
}

// FuzzRateFloor builds random compositions of the rate constructors and
// checks the contract thinning's early accept relies on: no evaluation
// falls below the floor, !(at(t) < floor), at the fuzzed instant and at
// both diurnal extremes (the trough is at 3·period/4, or at period/4
// when peakToMean < 1). Parameters may be negative, zero, huge, NaN or
// infinite.
//
// Run with: go test -fuzz FuzzRateFloor ./internal/trace
func FuzzRateFloor(f *testing.F) {
	f.Add(uint8(1), 1.0, DefaultWikiPeakToMean, 10.0, int64(1), uint8(1), 9000.0, 7.5)
	f.Add(uint8(1), 1.0, DefaultWikiPeakToMean, 86400.0, int64(1), uint8(14), 35.0, 21600.0)
	f.Add(uint8(1), 300.0, 0.5, 60.0, int64(0), uint8(0), 0.0, 15.0)
	f.Add(uint8(1), 1e300, 1e300, 86400.0, int64(0), uint8(1), 35.0, 64800.0)
	f.Add(uint8(2), 1.0, DefaultTwitterPeakToMean, 300.0, int64(7), uint8(5), 9000.0, 42.0)
	f.Add(uint8(2), 5.0, 0.5, 300.0, int64(3), uint8(0), 0.0, 100.0)
	f.Add(uint8(0), 9000.0, 1.0, 60.0, int64(0), uint8(2), 0.0, 1.0)
	f.Add(uint8(0), 9000.0, 1.0, 60.0, int64(0), uint8(1), -9000.0, 1.0)
	f.Add(uint8(1), math.NaN(), math.Inf(1), math.Inf(-1), int64(0), uint8(2), math.NaN(), math.NaN())
	f.Add(uint8(0), math.Inf(1), 1.0, 1.0, int64(0), uint8(1), math.Inf(-1), 0.0)
	f.Fuzz(func(t *testing.T, shape uint8, mean, peakToMean, period float64, seed int64, scales uint8, target, at float64) {
		probes := []float64{at}
		var r RateFn
		switch shape % 3 {
		case 0:
			r = Constant(mean)
		case 1:
			r = Diurnal(mean, peakToMean, period)
			probes = append(probes, period/4, 3*period/4)
		default:
			// Erratic draws one spike per 30 s of horizon, so keep the
			// horizon finite and small.
			r = Erratic(mean, peakToMean, clampFinite(period, 1, 3600), seed)
		}
		// Bits 0-1 of scales count the rescalings (0 to 2); bits 2 and 3
		// pick ScaleToPeak over ScaleToMean for each. The second target
		// is the first negated, so a negative factor always appears in a
		// two-step composition.
		for i := 0; i < int(scales&3)%3; i++ {
			if scales>>(2+i)&1 == 0 {
				r = ScaleToMean(r, target, period)
			} else {
				r = ScaleToPeak(r, target, period)
			}
			target = -target
		}
		for _, x := range probes {
			if v := r.at(x); v < r.floor {
				t.Fatalf("rate(%v) = %v is below the floor %v", x, v, r.floor)
			}
		}
	})
}

// clampFinite forces v into [lo, hi], mapping NaN/Inf to lo.
func clampFinite(v, lo, hi float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return lo
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
