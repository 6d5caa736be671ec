package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestSketchQuantileWithinAlpha pins the sketch-mode recorder's P50 and
// P99, whole and per class, within the documented SketchAlpha relative
// error of the exact path, over five seeds of heavy-tailed latencies
// with mixed weights and models.
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
		for _, v := range []struct {
			name      string
			sk, exact *Recorder
		}{{"all", sketch, exact}, {"strict", sketch.Strict(), exact.Strict()}, {"best effort", sketch.BestEffort(), exact.BestEffort()}} {
			for _, p := range []float64{50, 99} {
				want := v.exact.Percentile(p)
				got := v.sk.Percentile(p)
				if rel := math.Abs(got-want) / want; rel > SketchAlpha {
					t.Fatalf("seed %d %s: sketch P%v = %v, exact %v (relative error %.4f > %v)",
						seed, v.name, p, got, want, rel, SketchAlpha)
				}
			}
		}
		// The counts are exact, not approximations.
		if g, w := sketch.SLOCompliance(), exact.SLOCompliance(); g != w {
			t.Fatalf("seed %d: sketch SLO compliance %v, exact %v", seed, g, w)
		}
		if g, w := sketch.Requests(), exact.Requests(); g != w {
			t.Fatalf("seed %d: sketch requests %d, exact %d", seed, g, w)
		}
		if g, w := Goodput(sketch, 60), Goodput(exact, 60); g != w {
			t.Fatalf("seed %d: sketch goodput %v, exact %v", seed, g, w)
		}
		if g, w := sketch.Strict().Requests(), exact.Strict().Requests(); g != w {
			t.Fatalf("seed %d: strict view requests %d, exact %d", seed, g, w)
		}
	}
}

// TestSketchMergeOrderIndependent asserts a sketch assembled by any
// insertion order, or by merging parts in any order, is deeply equal to
// one built in order: the property that makes a sketch cluster's
// node-order merge, and a class sketch's merge with another, exact.
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

// TestSketchMergeCountsRequests asserts a sketch recorder's request and
// sample counts follow Merge, a self-merge included, and that a class
// view counts only its class.
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
	if got := r.Len(); got != 6 {
		t.Fatalf("samples after self-merge = %d, want 6", got)
	}
	if got := r.Strict().Requests(); got != 14 {
		t.Fatalf("strict view requests = %d, want 14", got)
	}
	if got, n := r.BestEffort().Requests(), r.BestEffort().Len(); got != 4 || n != 2 {
		t.Fatalf("best-effort view holds %d requests in %d samples, want 4 in 2", got, n)
	}
}

// TestSketchClasses checks the class sketches against references built
// from the same samples, over merged node recorders and a self-merge:
// each class's percentiles equal, bit for bit, those of a Sketch merged
// from per-model sketches, since bucket counts are integer sums however
// the samples are split; Len, Requests, SLOCompliance and Goodput equal
// the exact recorder's, whole and per class; and views of views show
// the intersection of their classes.
func TestSketchClasses(t *testing.T) {
	models := []string{"BERT", "GPT-2", "ResNet 50"}
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		exact, merged := &Recorder{}, NewSketchRecorder()
		nodes := []*Recorder{NewSketchRecorder(), NewSketchRecorder(), NewSketchRecorder()}
		// perModel[strict][model] is the reference: one Sketch per
		// (class, model).
		perModel := [2]map[string]*Sketch{{}, {}}
		for i := 0; i < 6000; i++ {
			s := Sample{
				Model:   models[rng.Intn(len(models))],
				Strict:  rng.Intn(2) == 0,
				Latency: math.Exp(rng.NormFloat64()*1.5 - 3),
				SLO:     0.05,
				Weight:  1 + rng.Intn(4),
			}
			switch rng.Intn(20) {
			case 0:
				s.Latency = 0
			case 1:
				s.Latency = math.NaN()
			}
			exact.Add(s)
			nodes[rng.Intn(len(nodes))].Add(s)
			c := classOf(s.Strict)
			if perModel[c][s.Model] == nil {
				perModel[c][s.Model] = &Sketch{}
			}
			perModel[c][s.Model].Add(s.Latency, s.Weight)
		}
		merged.Merge(nodes...)
		exact.Merge(exact)
		merged.Merge(merged)
		// The self-merges doubled every sample, so the reference merges
		// each per-model sketch twice.
		ref := func(classes ...int) *Sketch {
			out := &Sketch{}
			for _, c := range classes {
				for _, m := range models {
					out.Merge(perModel[c][m])
					out.Merge(perModel[c][m])
				}
			}
			return out
		}
		for _, v := range []struct {
			name      string
			sk, exact *Recorder
			ref       *Sketch
		}{
			{"all", merged, exact, ref(0, 1)},
			{"strict", merged.Strict(), exact.Strict(), ref(1)},
			{"best effort", merged.BestEffort(), exact.BestEffort(), ref(0)},
			{"strict of strict", merged.Strict().Strict(), exact.Strict().Strict(), ref(1)},
			{"best effort of strict", merged.Strict().BestEffort(), exact.Strict().BestEffort(), ref()},
			{"strict of best effort", merged.BestEffort().Strict(), exact.BestEffort().Strict(), ref()},
		} {
			what := fmt.Sprintf("seed %d %s", seed, v.name)
			for _, p := range []float64{1, 50, 99, 99.9, 100} {
				if g, w := v.sk.Percentile(p), v.ref.Quantile(p); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: P%v = %v, per-model merge %v", what, p, g, w)
				}
			}
			if g, w := v.sk.Len(), v.exact.Len(); g != w {
				t.Fatalf("%s: Len %d, exact %d", what, g, w)
			}
			if g, w := v.sk.Requests(), v.exact.Requests(); g != w {
				t.Fatalf("%s: Requests %d, exact %d", what, g, w)
			}
			if g, w := v.sk.SLOCompliance(), v.exact.SLOCompliance(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: SLO compliance %v, exact %v", what, g, w)
			}
			if g, w := Goodput(v.sk, 60), Goodput(v.exact, 60); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: goodput %v, exact %v", what, g, w)
			}
		}
		if empty := merged.Strict().BestEffort(); empty.Len() != 0 || !math.IsNaN(empty.Percentile(50)) {
			t.Fatalf("seed %d: a view of both classes' complements holds %d samples", seed, empty.Len())
		}
	}
}

// TestGoodputCountsNaNAsMiss pins Goodput's count-based reading on a
// hand-built recorder: a strict request whose latency is NaN is a miss,
// as SLOCompliance counts it, and best-effort requests always count.
func TestGoodputCountsNaNAsMiss(t *testing.T) {
	for _, r := range []*Recorder{{}, NewSketchRecorder()} {
		r.Add(Sample{Strict: true, Latency: 0.1, SLO: 0.2, Weight: 2})
		r.Add(Sample{Strict: true, Latency: 0.3, SLO: 0.2, Weight: 3})
		r.Add(Sample{Strict: true, Latency: math.NaN(), SLO: 0.2, Weight: 5})
		r.Add(Sample{Latency: math.NaN(), Weight: 7})
		if got := Goodput(r, 2); got != 4.5 {
			t.Fatalf("goodput %v, want (2 + 7) / 2", got)
		}
		if got := r.SLOCompliance(); got != 0.2 {
			t.Fatalf("SLO compliance %v, want 2/10", got)
		}
	}
}

// TestSketchRejectsRowQueries asserts every query that needs rows panics
// on a sketch recorder and on its class views, while the queries a
// sketch answers do not.
func TestSketchRejectsRowQueries(t *testing.T) {
	sk := NewSketchRecorder()
	sk.Add(Sample{Model: "m", Strict: true, Latency: 0.1, SLO: 0.2, Weight: 1, Completed: 1})
	sk.Add(Sample{Model: "m", Latency: 0.2, Weight: 1, Completed: 2})
	for _, r := range []*Recorder{sk, sk.Strict(), sk.BestEffort()} {
		for _, q := range []struct {
			name  string
			query func()
		}{
			{"ForModel", func() { r.ForModel("m") }},
			{"Filter", func() { r.Filter(func(Sample) bool { return true }) }},
			{"Throughput with a horizon", func() { r.Throughput(10, 1, 5) }},
			{"TotalThroughput with a horizon", func() { r.TotalThroughput(10, 1, 5) }},
			{"Mean", func() { r.Mean() }},
			{"Latencies", func() { r.Latencies() }},
			{"BreakdownAtPercentile", func() { r.BreakdownAtPercentile(99) }},
			{"Summarize", func() { r.Summarize() }},
			{"Snapshot", func() { r.Snapshot() }},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s on a sketch recorder did not panic", q.name)
					}
				}()
				q.query()
			}()
		}
	}
	if got := sk.Throughput(10, 1, 0); got != 0.1 {
		t.Fatalf("horizon-free throughput %v, want 1 strict request / 10 s", got)
	}
	if got := sk.TotalThroughput(10, 1, 0); got != 0.2 {
		t.Fatalf("horizon-free total throughput %v, want 2 requests / 10 s", got)
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

// sketchSlot is where a sketch ranks v: with the values at or below 0
// (zero true), or in v's bucket, NaN and +Inf in infBucket.
func sketchSlot(v float64) (int32, bool) {
	if v <= 0 {
		return 0, true
	}
	return bucketOf(v), false
}

// FuzzSketchOrder feeds the same weighted latencies, from raw bit
// patterns, to a Sketch and to an exact recorder, and requires that at
// every percentile checked the sketch picks the bucket of the exact
// percentile: the sketch ranks values as the exact recorder does, those
// at or below 0 first and NaN and +Inf last, above every finite bucket.
func FuzzSketchOrder(f *testing.F) {
	edge := fuzzRecords(edgeLatencies...)
	for _, n := range []uint16{1, 2, uint16(len(edgeLatencies)), 300} {
		f.Add(edge, n, 50.0)
	}
	f.Add(fuzzRecords(1e308, math.Inf(1), 5e-324, -3), uint16(9), 99.0)
	f.Add(fuzzRecords(math.NaN(), 0.02, 0), uint16(40), 70.0)
	f.Fuzz(func(t *testing.T, data []byte, n uint16, p float64) {
		r := fuzzRecorder(data, int(n)%(4*chunkRows))
		if r.Requests() == 0 {
			return
		}
		var sk Sketch
		r.eachExact(func(_ uint32, s *row, g *group, _ *nameTable) { sk.Add(s.Latency, g.Weight) })
		ps := []float64{1, 10, 25, 50, 75, 90, 99, 99.9, 100}
		if p > 0 && p <= 100 {
			ps = append(ps, p)
		}
		for _, p := range ps {
			exact := r.Percentile(p)
			i, zero := sk.quantileBucket(p)
			wi, wzero := sketchSlot(exact)
			if i != wi || zero != wzero {
				t.Fatalf("P%v: sketch picks bucket %d (zero %v), the exact percentile %v is in %d (zero %v)",
					p, i, zero, exact, wi, wzero)
			}
			if nonFinite := math.IsNaN(exact) || math.IsInf(exact, 1); nonFinite != (i == infBucket) {
				t.Fatalf("P%v: exact percentile %v in bucket %d, the non-finite bucket is %d", p, exact, i, infBucket)
			}
			if i == infBucket && sk.Quantile(p) != math.Inf(1) {
				t.Fatalf("P%v: sketch estimate %v for NaN or +Inf, want +Inf", p, sk.Quantile(p))
			}
		}
	})
}

// TestSketchNonFiniteRankLast pins where a sketch puts NaN and +Inf:
// both in one bucket above every finite one, whose estimate is +Inf,
// whatever int32 conversion the host would give them.
func TestSketchNonFiniteRankLast(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Float64frombits(0x7ff0000000000001)} {
		if got := bucketOf(v); got != infBucket {
			t.Errorf("bucketOf(%v) = %d, want %d", v, got, infBucket)
		}
	}
	if top := bucketOf(math.MaxFloat64); top >= infBucket || top > 40000 {
		t.Errorf("bucketOf(MaxFloat64) = %d, not below the non-finite bucket", top)
	}
	if low := bucketOf(math.SmallestNonzeroFloat64); low < -40000 {
		t.Errorf("bucketOf(SmallestNonzeroFloat64) = %d, below -40000", low)
	}
	var sk Sketch
	sk.Add(math.NaN(), 1)
	sk.Add(math.Inf(1), 1)
	sk.Add(1, 2)
	if got := sk.Quantile(50); got != bucketValue(bucketOf(1)) {
		t.Errorf("P50 = %v, want the bucket of 1", got)
	}
	if got := sk.Quantile(100); !math.IsInf(got, 1) {
		t.Errorf("P100 = %v, want +Inf", got)
	}
}
