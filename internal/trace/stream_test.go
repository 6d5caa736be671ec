package trace

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"protean/internal/model"
)

// erraticScanReference replicates the pre-index Erratic evaluation: the
// identical spike draws followed by a linear scan over every spike per
// call. The interval index must reproduce its values bitwise.
func erraticScanReference(mean, peakToMean, duration float64, seed int64) RateFn {
	rng := rand.New(rand.NewSource(seed))
	type spike struct{ start, dur, factor float64 }
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
	denom := (duration - spikeTime) + spikeWeight
	base := mean
	if denom > 0 {
		base = mean * duration / denom
	}
	return RateFn{at: func(t float64) float64 {
		v := base
		for _, sp := range spikes {
			if t >= sp.start && t < sp.start+sp.dur {
				v = math.Max(v, base*sp.factor)
			}
		}
		return v
	}, floor: math.NaN()}
}

// TestErraticIndexMatchesScan pins the interval-index Erratic against
// the linear-scan reference: identical RateFn values, bit for bit, on a
// dense grid and at the exact spike boundaries, across seeds and
// durations including a multi-day horizon.
func TestErraticIndexMatchesScan(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		for _, duration := range []float64{60, 3600, 172800} {
			got := Erratic(1, DefaultTwitterPeakToMean, duration, seed)
			want := erraticScanReference(1, DefaultTwitterPeakToMean, duration, seed)
			const grid = 20000
			for i := 0; i <= grid; i++ {
				x := duration * float64(i) / grid
				g, w := got.at(x), want.at(x)
				if g != w {
					t.Fatalf("seed %d dur %v: rate(%v) = %v, scan reference %v", seed, duration, x, g, w)
				}
			}
			// Exact boundary instants: re-draw the spikes and probe each
			// start and end, where the half-open interval semantics bite.
			rng := rand.New(rand.NewSource(seed))
			n := int(math.Max(1, duration/30))
			for i := 0; i < n; i++ {
				start := rng.Float64() * duration
				dur := 2 + float64(rng.Float64()*6)
				rng.Float64() // factor draw
				for _, x := range []float64{start, start + dur, math.Nextafter(start, 0), math.Nextafter(start+dur, duration)} {
					if g, w := got.at(x), want.at(x); g != w {
						t.Fatalf("seed %d dur %v: boundary rate(%v) = %v, scan reference %v", seed, duration, x, g, w)
					}
				}
			}
		}
	}
}

// TestErraticIndexBelowOneFactor covers peakToMean < 1: surge factors
// below 1 must leave the base rate untouched, as the scan's max did.
func TestErraticIndexBelowOneFactor(t *testing.T) {
	got := Erratic(5, 0.5, 300, 3)
	want := erraticScanReference(5, 0.5, 300, 3)
	for i := 0; i <= 3000; i++ {
		x := 300 * float64(i) / 3000
		if g, w := got.at(x), want.at(x); g != w {
			t.Fatalf("rate(%v) = %v, scan reference %v", x, g, w)
		}
	}
}

// TestStreamMatchesGenerate asserts the pull-based Stream yields the
// byte-identical request sequence as Generate for the same seed,
// including when consumption stops mid-stream and resumes later, on a
// steep diurnal and on the paper grid's Wiki and Twitter traces.
func TestStreamMatchesGenerate(t *testing.T) {
	strict := model.MustByName("ResNet 50")
	pool := []*model.Model{model.MustByName("BERT"), model.MustByName("GPT-2")}
	var cfgs []Config
	for _, seed := range []int64{1, 9, -3} {
		cfgs = append(cfgs, Config{
			Rate:     Diurnal(800, 1.3, 60),
			Mix:      Mix{StrictFrac: 0.5, Strict: strict, BEPool: pool},
			Duration: 60,
			Seed:     seed,
		})
	}
	cfgs = append(cfgs, wikiConfig(10, 1), twitterConfig(10, 2))
	for _, cfg := range cfgs {
		seed := cfg.Seed
		reqs, err := Generate(cfg)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		st, err := NewStream(cfg)
		if err != nil {
			t.Fatalf("NewStream: %v", err)
		}
		// Consume a prefix, pause (interleave an unrelated stream to
		// prove state is self-contained), then resume to exhaustion.
		half := len(reqs) / 2
		for i := 0; i < half; i++ {
			got, ok := st.Next()
			if !ok {
				t.Fatalf("seed %d: stream ended at %d, want %d requests", seed, i, len(reqs))
			}
			if got != reqs[i] {
				t.Fatalf("seed %d: stream request %d = %+v, Generate %+v", seed, i, got, reqs[i])
			}
		}
		if got := st.id; got != uint64(half) {
			t.Fatalf("seed %d: emitted %d after %d pulls", seed, got, half)
		}
		other, err := NewStream(Config{Rate: Constant(100), Mix: cfg.Mix, Duration: 10, Seed: seed + 1})
		if err != nil {
			t.Fatalf("NewStream (interleaved): %v", err)
		}
		for i := 0; i < 50; i++ {
			other.Next()
		}
		for i := half; i < len(reqs); i++ {
			got, ok := st.Next()
			if !ok {
				t.Fatalf("seed %d: stream ended at %d, want %d requests", seed, i, len(reqs))
			}
			if got != reqs[i] {
				t.Fatalf("seed %d: resumed stream request %d = %+v, Generate %+v", seed, i, got, reqs[i])
			}
		}
		if _, ok := st.Next(); ok {
			t.Fatalf("seed %d: stream yielded a request past the Generate horizon", seed)
		}
		if _, ok := st.Next(); ok {
			t.Fatalf("seed %d: exhausted stream restarted", seed)
		}
	}
}

// TestFloorKeepsEveryRequest asserts that accepting a candidate at or
// below the rate's floor without evaluating the rate changes nothing:
// Generate equals a drain of the same config whose floor is NaN, which
// evaluates the rate at every candidate.
func TestFloorKeepsEveryRequest(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"wiki 10 s", wikiConfig(10, 1)},
		{"wiki 60 s", wikiConfig(60, 1)},
		{"twitter 60 s", twitterConfig(60, 3)},
		{"constant", visionConfig()},
		{"scale-diurnal 6 h", scaleConfig()},
	} {
		if !(tc.cfg.Rate.floor > 0) {
			t.Fatalf("%s: floor %v skips no evaluation", tc.name, tc.cfg.Rate.floor)
		}
		got, err := Generate(tc.cfg)
		if err != nil {
			t.Fatalf("%s: Generate: %v", tc.name, err)
		}
		ref := tc.cfg
		ref.Rate.floor = math.NaN()
		st, err := NewStream(ref)
		if err != nil {
			t.Fatalf("%s: NewStream: %v", tc.name, err)
		}
		n := 0
		for req, ok := st.Next(); ok; req, ok = st.Next() {
			if n >= len(got) || req != got[n] {
				t.Fatalf("%s: full-evaluation request %d = %+v, Generate has %d requests", tc.name, n, req, len(got))
			}
			n++
		}
		if n != len(got) {
			t.Fatalf("%s: full evaluation yields %d requests, Generate %d", tc.name, n, len(got))
		}
	}
}

// TestGenerateAllocatesOnce asserts Generate reserves its slice up
// front: it makes exactly one allocation more than NewStream, and no
// reservation is attempted for a non-finite or implausibly large
// expected request count.
func TestGenerateAllocatesOnce(t *testing.T) {
	for _, cfg := range []Config{
		{Rate: Constant(500), Mix: baseMix(), Duration: 20, Seed: 1},
		{Rate: Diurnal(800, 1.3, 60), Mix: baseMix(), Duration: 60, Seed: 2},
	} {
		stream := testing.AllocsPerRun(3, func() {
			if _, err := NewStream(cfg); err != nil {
				t.Fatal(err)
			}
		})
		generate := testing.AllocsPerRun(3, func() {
			if _, err := Generate(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if generate != stream+1 {
			t.Fatalf("Generate made %v allocations, NewStream %v; want exactly one more", generate, stream)
		}
	}
	for _, cfg := range []Config{
		{Rate: Constant(math.Inf(1)), Duration: 10},
		{Rate: Constant(math.NaN()), Duration: 10},
		{Rate: Constant(-5), Duration: 10},
		{Rate: Constant(1e9), Duration: 1e6},
	} {
		if got := expectedCap(cfg); got != 0 {
			t.Fatalf("rate %v over %v s reserves %d requests, want 0", cfg.Rate.at(0), cfg.Duration, got)
		}
	}
}

// visionConfig is perfbench's vision-gateway trace: a constant 9000 rps
// for 60 s.
func visionConfig() Config {
	return Config{Rate: Constant(9000), Mix: baseMix(), Duration: 60, Seed: 1}
}

// gridMix is the experiments' default mix for a ResNet 50 row: half
// strict, best effort over the opposite-class pool.
func gridMix() Mix {
	strict := model.MustByName("ResNet 50")
	return Mix{StrictFrac: 0.5, Strict: strict, BEPool: model.OppositeClassPool(strict)}
}

// wikiConfig is the paper grid's Wiki trace: one diurnal period over
// the run, scaled to a 9000 rps mean.
func wikiConfig(duration float64, seed int64) Config {
	rate := ScaleToMean(Diurnal(1, DefaultWikiPeakToMean, duration), 9000, duration)
	return Config{Rate: rate, Mix: gridMix(), Duration: duration, Seed: seed}
}

// twitterConfig is the paper grid's Twitter trace: erratic surges
// scaled to a 9000 rps peak.
func twitterConfig(duration float64, seed int64) Config {
	rate := ScaleToPeak(Erratic(1, DefaultTwitterPeakToMean, duration, seed), 9000, duration)
	return Config{Rate: rate, Mix: gridMix(), Duration: duration, Seed: seed}
}

// scaleConfig is perfbench's scale-diurnal stream: a daily diurnal at a
// 35 rps mean over six hours.
func scaleConfig() Config {
	rate := ScaleToMean(Diurnal(1, DefaultWikiPeakToMean, 86400), 35, 21600)
	return Config{Rate: rate, Mix: gridMix(), Duration: 21600, Seed: 1}
}

// BenchmarkGenerate measures materialising the vision-gateway trace and
// the paper grid's 10 s Wiki and Twitter traces.
func BenchmarkGenerate(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"constant", visionConfig()},
		{"wiki", wikiConfig(10, 1)},
		{"twitter", twitterConfig(10, 1)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Generate(bc.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamNext measures one pull from the vision-gateway and the
// scale-diurnal streams, starting a fresh stream whenever one runs out.
func BenchmarkStreamNext(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"constant", visionConfig()},
		{"scale-diurnal", scaleConfig()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			st, err := NewStream(bc.cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := st.Next(); !ok {
					st, _ = NewStream(bc.cfg)
				}
			}
		})
	}
}

// TestSourceNextGenerateAgree asserts the three ways to draw a trace
// yield the same requests: Source, Next and Generate give identical IDs,
// models, classes and arrivals over Constant, Diurnal and Erratic rates,
// strict fractions 0, 0.5 and 1, and an empty best-effort pool, also
// when a Source is abandoned mid-way and a fresh one restarts. It also
// pins Source's contract that its request is overwritten by the next
// call.
func TestSourceNextGenerateAgree(t *testing.T) {
	strict := model.MustByName("ResNet 50")
	pool := model.OppositeClassPool(strict)
	rates := []struct {
		name string
		rate RateFn
	}{
		{"constant", Constant(700)},
		{"diurnal", Diurnal(700, 1.3, 20)},
		{"erratic", ScaleToPeak(Erratic(1, DefaultTwitterPeakToMean, 20, 4), 900, 20)},
	}
	mixes := []struct {
		name string
		mix  Mix
	}{
		{"all best effort", Mix{StrictFrac: 0, Strict: strict, BEPool: pool}},
		{"half strict", Mix{StrictFrac: 0.5, Strict: strict, BEPool: pool}},
		{"all strict", Mix{StrictFrac: 1, Strict: strict, BEPool: pool}},
		{"empty BE pool", Mix{StrictFrac: 0.5, Strict: strict}},
	}
	for _, r := range rates {
		for _, m := range mixes {
			for _, seed := range []int64{1, 7} {
				name := fmt.Sprintf("%s/%s/seed %d", r.name, m.name, seed)
				cfg := Config{Rate: r.rate, Mix: m.mix, Duration: 20, Seed: seed}
				want, err := Generate(cfg)
				if err != nil {
					t.Fatalf("%s: Generate: %v", name, err)
				}
				if len(want) < 100 {
					t.Fatalf("%s: only %d requests", name, len(want))
				}
				same := func(how string, i int, got Request) {
					t.Helper()
					if got != want[i] {
						t.Fatalf("%s: %s request %d = %+v, Generate %+v", name, how, i, got, want[i])
					}
				}
				st, err := NewStream(cfg)
				if err != nil {
					t.Fatalf("%s: NewStream: %v", name, err)
				}
				for i := range want {
					got, ok := st.Next()
					if !ok {
						t.Fatalf("%s: Next ended at %d of %d", name, i, len(want))
					}
					same("Next", i, got)
				}
				if _, ok := st.Next(); ok {
					t.Fatalf("%s: Next yielded past the horizon", name)
				}

				// Abandon a Source a third of the way in; a fresh one
				// restarts from the first request.
				st, _ = NewStream(cfg)
				src := st.Source()
				first := src()
				for i := 1; i < len(want)/3; i++ {
					src()
				}
				st, _ = NewStream(cfg)
				src = st.Source()
				var prev *Request
				for i := range want {
					got := src()
					if got == nil {
						t.Fatalf("%s: Source ended at %d of %d", name, i, len(want))
					}
					same("Source", i, *got)
					if prev != nil && prev != got {
						t.Fatalf("%s: Source returned a new buffer at request %d", name, i)
					}
					prev = got
				}
				if src() != nil {
					t.Fatalf("%s: Source yielded past the horizon", name)
				}
				// The abandoned source's buffer holds its own last pull,
				// not the first request it returned.
				if first.ID == 0 {
					t.Fatalf("%s: an abandoned Source's request was not overwritten by its next call", name)
				}
			}
		}
	}
}
