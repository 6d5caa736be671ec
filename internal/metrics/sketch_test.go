package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestSketchQuantileWithinAlpha pins the sketch-mode recorder's P50 and
// P99 within the documented SketchAlpha relative error of the exact
// path, over five seeds of heavy-tailed latencies with mixed weights
// and models.
func TestSketchQuantileWithinAlpha(t *testing.T) {
	models := []string{"BERT", "GPT-2", "ResNet 50"}
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed))
		exact := &Recorder{}
		sketch := NewSketchRecorder()
		for i := 0; i < 20000; i++ {
			s := Sample{
				Model:   models[rng.Intn(len(models))],
				Strict:  rng.Intn(2) == 0,
				Latency: math.Exp(rng.NormFloat64()*1.5 - 3), // lognormal, ~5ms median
				Weight:  1 + rng.Intn(8),
			}
			if s.Strict {
				s.SLO = 0.1
			}
			exact.Add(s)
			sketch.Add(s)
		}
		for _, p := range []float64{50, 99} {
			want := exact.Percentile(p)
			got := sketch.Percentile(p)
			if rel := math.Abs(got-want) / want; rel > SketchAlpha {
				t.Fatalf("seed %d: sketch P%v = %v, exact %v (relative error %.4f > %v)",
					seed, p, got, want, rel, SketchAlpha)
			}
		}
		// The streaming aggregates are exact, not approximations.
		if g, w := sketch.SLOCompliance(), exact.SLOCompliance(); g != w {
			t.Fatalf("seed %d: sketch SLO compliance %v, exact %v", seed, g, w)
		}
		if g, w := sketch.Requests(), exact.Requests(); g != w {
			t.Fatalf("seed %d: sketch requests %d, exact %d", seed, g, w)
		}
		if g, w := Goodput(sketch, 60), Goodput(exact, 60); g != w {
			t.Fatalf("seed %d: sketch goodput %v, exact %v", seed, g, w)
		}
		// Class and model filters must agree too (whole-aggregate selection).
		if g, w := sketch.Strict().Requests(), exact.Strict().Requests(); g != w {
			t.Fatalf("seed %d: strict view requests %d, exact %d", seed, g, w)
		}
		for _, m := range models {
			g := sketch.ForModel(m).Percentile(99)
			w := exact.ForModel(m).Percentile(99)
			if rel := math.Abs(g-w) / w; rel > SketchAlpha {
				t.Fatalf("seed %d model %s: sketch P99 %v, exact %v", seed, m, g, w)
			}
		}
	}
}

// TestSketchMergeOrderIndependent asserts a sketch assembled by any
// insertion order, or by merging shards in any order, serialises to
// identical bytes — the property the sharded event loop relies on.
func TestSketchMergeOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 5000)
	for i := range vals {
		vals[i] = math.Exp(rng.NormFloat64() * 2)
	}

	forward := &Sketch{}
	for _, v := range vals {
		forward.Add(v, 1)
	}
	backward := &Sketch{}
	for i := len(vals) - 1; i >= 0; i-- {
		backward.Add(vals[i], 1)
	}
	// Shard four ways, merge in two different orders.
	shards := make([]*Sketch, 4)
	for i := range shards {
		shards[i] = &Sketch{}
	}
	for i, v := range vals {
		shards[i%4].Add(v, 1)
	}
	mergeA := &Sketch{}
	for _, sh := range shards {
		mergeA.Merge(sh)
	}
	mergeB := &Sketch{}
	for i := len(shards) - 1; i >= 0; i-- {
		mergeB.Merge(shards[i])
	}

	for name, sk := range map[string]*Sketch{"backward": backward, "mergeA": mergeA, "mergeB": mergeB} {
		if !reflect.DeepEqual(sk, forward) {
			t.Fatalf("%s sketch differs from forward insertion", name)
		}
	}
	if forward.total != int64(len(vals)) {
		t.Fatalf("total = %d, want %d", forward.total, len(vals))
	}
}

// TestSketchEdgeCases covers empties, zero/negative latencies, and the
// weight normalisation the recorder applies.
func TestSketchEdgeCases(t *testing.T) {
	var sk Sketch
	if !math.IsNaN(sk.Quantile(50)) {
		t.Fatalf("empty sketch quantile = %v, want NaN", sk.Quantile(50))
	}
	sk.Add(0, 3)
	sk.Add(-1, 1)
	if got := sk.Quantile(50); got != 0 {
		t.Fatalf("all-zeros quantile = %v, want 0", got)
	}
	sk.Add(1.0, 0) // weight 0 normalises to 1
	if sk.total != 5 {
		t.Fatalf("total = %d, want 5", sk.total)
	}
	if got := sk.Quantile(100); math.Abs(got-1)/1 > SketchAlpha {
		t.Fatalf("max quantile = %v, want ~1", got)
	}
}

// TestExactViewsShareBacking asserts Filter and friends return views
// (no sample copies) that later parent writes do not perturb.
func TestExactViewsShareBacking(t *testing.T) {
	r := &Recorder{}
	for i := 0; i < 100; i++ {
		r.Add(Sample{Model: "BERT", Strict: i%2 == 0, Latency: float64(i), SLO: 50, Weight: 1})
	}
	v := r.Strict()
	if v.Len() != 50 {
		t.Fatalf("strict view has %d samples, want 50", v.Len())
	}
	if got, _ := v.at(v.view[0]); got != &r.chunks[0].rows[0] {
		t.Fatalf("view copied the sample backing")
	}
	sub := v.Filter(func(s Sample) bool { return s.Latency < 10 })
	if sub.Len() != 5 {
		t.Fatalf("chained view has %d samples, want 5", sub.Len())
	}
	if got := sub.Percentile(100); got != 8 {
		t.Fatalf("chained view max latency %v, want 8", got)
	}

	// Mutating the parent after views exist must not corrupt views.
	r.Add(Sample{Model: "GPT-2", Strict: false, Latency: 1, Weight: 1})
	if sub.Len() != 5 || sub.Percentile(100) != 8 {
		t.Fatalf("view changed after parent mutation")
	}
}

// TestSortCacheInvalidation asserts percentile results stay correct
// across interleaved Add calls (the cached sort order must be rebuilt).
func TestSortCacheInvalidation(t *testing.T) {
	r := &Recorder{}
	r.Add(Sample{Latency: 5, Weight: 1})
	r.Add(Sample{Latency: 1, Weight: 1})
	if got := r.Percentile(100); got != 5 {
		t.Fatalf("P100 = %v, want 5", got)
	}
	r.Add(Sample{Latency: 9, Weight: 1})
	if got := r.Percentile(100); got != 9 {
		t.Fatalf("P100 after add = %v, want 9 (stale sort cache?)", got)
	}
	m := &Recorder{}
	m.Add(Sample{Latency: 20, Weight: 1})
	r.Merge(m)
	if got := r.Percentile(100); got != 20 {
		t.Fatalf("P100 after merge = %v, want 20 (stale sort cache?)", got)
	}
}

// TestSketchMergeCountsRequests asserts a sketch recorder's request
// count follows Merge, a self-merge included, and that a sketch view
// counts only the aggregates it selects.
func TestSketchMergeCountsRequests(t *testing.T) {
	r, o := NewSketchRecorder(), NewSketchRecorder()
	r.Add(Sample{Model: "BERT", Strict: true, SLO: 0.2, Latency: 0.1, Weight: 3})
	o.Add(Sample{Model: "BERT", Latency: 0.3, Weight: 2})
	o.Add(Sample{Model: "GPT-2", Strict: true, SLO: 0.2, Latency: 0.1, Weight: 4})
	r.Merge(o)
	if got := r.Requests(); got != 9 {
		t.Fatalf("requests after merge = %d, want 9", got)
	}
	r.Merge(r)
	if got := r.Requests(); got != 18 {
		t.Fatalf("requests after self-merge = %d, want 18", got)
	}
	if got := r.Strict().Requests(); got != 14 {
		t.Fatalf("strict view requests = %d, want 14", got)
	}
	if got := r.ForModel("BERT").BestEffort().Requests(); got != 4 {
		t.Fatalf("chained view requests = %d, want 4", got)
	}
}

// BenchmarkReportPath measures the full per-cell report computation
// (class and model views, percentiles, summaries) over a large
// recorder. The view-based Filter keeps this allocation-light: each
// subset costs one index slice rather than a copy of every sample.
func BenchmarkReportPath(b *testing.B) {
	r := &Recorder{}
	rng := rand.New(rand.NewSource(1))
	models := []string{"BERT", "GPT-2", "ResNet 50"}
	for i := 0; i < 200000; i++ {
		r.Add(Sample{
			Model:   models[rng.Intn(len(models))],
			Strict:  rng.Intn(2) == 0,
			SLO:     0.1,
			Latency: rng.ExpFloat64() * 0.05,
			Weight:  1 + rng.Intn(4),
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Summarize()
		_ = r.Snapshot()
		_ = r.BestEffort().Mean()
	}
}

// BenchmarkSketchAdd measures the O(1)-memory ingest path.
func BenchmarkSketchAdd(b *testing.B) { benchmarkAdd(b, NewSketchRecorder()) }

// BenchmarkRecorderAdd measures the exact-mode ingest path.
func BenchmarkRecorderAdd(b *testing.B) { benchmarkAdd(b, &Recorder{}) }

// benchmarkAdd records one strict BERT sample per iteration into r.
func benchmarkAdd(b *testing.B, r *Recorder) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = rng.ExpFloat64() * 0.05
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Add(Sample{Model: "BERT", Strict: true, SLO: 0.1, Latency: vals[i%len(vals)], Weight: 1})
	}
}
