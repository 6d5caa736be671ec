package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"protean/internal/gpu"
)

// visibleHandles lists a recorder's visible handles in storage order,
// read straight off its view or its chunk layout.
func visibleHandles(r *Recorder) []uint32 {
	if r.view != nil {
		return slices.Clone(r.view)
	}
	var hs []uint32
	for ci, c := range r.chunks {
		for off := range c.rows {
			hs = append(hs, uint32(ci<<chunkShift|off))
		}
	}
	return hs
}

// latencyAt and weightAt read one field of the sample a handle
// addresses.
func latencyAt(r *Recorder, h uint32) float64 { s, _ := r.at(h); return s.Latency }
func weightAt(r *Recorder, h uint32) int      { _, g := r.at(h); return g.Weight }

// refOrder is the reference model's order: the visible handles, stably
// sorted by latency.
func refOrder(r *Recorder) []uint32 {
	idx := visibleHandles(r)
	sort.SliceStable(idx, func(a, b int) bool { return latencyAt(r, idx[a]) < latencyAt(r, idx[b]) })
	return idx
}

// refSampleAt is the reference model of the exact quantile path: a
// linear scan of cumulative float64 weights over refOrder. It returns
// the chosen sample's handle, or false when idx is empty.
func refSampleAt(r *Recorder, idx []uint32, p float64) (uint32, bool) {
	if len(idx) == 0 {
		return 0, false
	}
	total := 0
	for _, h := range idx {
		total += weightAt(r, h)
	}
	target := p / 100 * float64(total)
	cum := 0.0
	for _, h := range idx {
		cum += float64(weightAt(r, h))
		if cum >= target {
			return h, true
		}
	}
	return idx[len(idx)-1], true
}

func breakdownBits(b gpu.Breakdown) [5]uint64 {
	return [5]uint64{
		math.Float64bits(b.Queue), math.Float64bits(b.ColdStart), math.Float64bits(b.MinPossible),
		math.Float64bits(b.Deficiency), math.Float64bits(b.Interference),
	}
}

// checkAgainstReference asserts Percentile and BreakdownAtPercentile
// pick bitwise the sample the reference model picks.
func checkAgainstReference(t *testing.T, what string, r *Recorder) {
	t.Helper()
	idx := refOrder(r)
	for _, p := range []float64{0.1, 1, 50, 90, 99, 99.9, 100} {
		h, ok := refSampleAt(r, idx, p)
		got, _ := r.sampleAtPercentile(p)
		if !ok {
			if got != nil {
				t.Fatalf("%s: P%v picked row %p from an empty recorder", what, p, got)
			}
			continue
		}
		want, g := r.at(h)
		if got != want {
			t.Fatalf("%s: P%v picked row %p, reference %p", what, p, got, want)
		}
		if got := r.Percentile(p); math.Float64bits(got) != math.Float64bits(want.Latency) {
			t.Fatalf("%s: P%v = %v, reference %v", what, p, got, want.Latency)
		}
		if got, want := r.BreakdownAtPercentile(p), g.breakdown(want.Queue); breakdownBits(got) != breakdownBits(want) {
			t.Fatalf("%s: P%v breakdown %+v, reference %+v", what, p, got, want)
		}
	}
	for i := 1; i <= 100 && r.Len() > 0; i++ {
		q := float64(i) / 100 * 100
		h, _ := refSampleAt(r, idx, q)
		if got, want := r.Percentile(q), latencyAt(r, h); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: P%v = %v, reference %v", what, q, got, want)
		}
	}
}

// forTenant is the per-tenant view the live control plane's samples
// support.
func forTenant(r *Recorder, id string) *Recorder {
	return r.Filter(func(s Sample) bool { return s.Tenant == id })
}

// randomSample draws a sample whose latency often ties with others —
// including -0.0 against 0.0 — and whose breakdown is unique, so the
// chosen sample is identifiable.
func randomSample(rng *rand.Rand, id int) Sample {
	ties := []float64{math.Copysign(0, -1), 0, 0.001, 0.25, 0.25, 1}
	lat := rng.ExpFloat64() * 0.1
	if rng.Intn(2) == 0 {
		lat = ties[rng.Intn(len(ties))]
	}
	return Sample{
		Model:     []string{"a", "b", "c"}[rng.Intn(3)],
		Tenant:    []string{"", "t1", "t2"}[rng.Intn(3)],
		Strict:    rng.Intn(2) == 0,
		Latency:   lat,
		SLO:       0.2,
		Breakdown: gpu.Breakdown{Queue: float64(id), MinPossible: lat},
		Completed: float64(rng.Intn(100)),
		Weight:    1 + rng.Intn(4),
	}
}

// randomRecorder adds n random samples to a fresh recorder and, when
// also is non-nil, to also.
func randomRecorder(rng *rand.Rand, id *int, n int, also *Recorder) *Recorder {
	r := &Recorder{}
	for i := 0; i < n; i++ {
		*id++
		s := randomSample(rng, *id)
		r.Add(s)
		if also != nil {
			also.Add(s)
		}
	}
	return r
}

// samplesOf returns a recorder's visible samples in order, names
// included.
func samplesOf(r *Recorder) []Sample {
	var out []Sample
	r.Filter(func(s Sample) bool { out = append(out, s); return false })
	return out
}

// sameAnswers asserts two exact recorders hold the same samples in the
// same order and give bitwise the same report answers.
func sameAnswers(t *testing.T, what string, got, want *Recorder) {
	t.Helper()
	if got.Len() != want.Len() || got.Requests() != want.Requests() {
		t.Fatalf("%s: %d requests in %d samples, want %d in %d",
			what, got.Requests(), got.Len(), want.Requests(), want.Len())
	}
	if !reflect.DeepEqual(samplesOf(got), samplesOf(want)) {
		t.Fatalf("%s: samples differ", what)
	}
	for _, p := range []float64{1, 50, 99, 100} {
		if g, w := got.Percentile(p), want.Percentile(p); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: P%v = %v, want %v", what, p, g, w)
		}
		if g, w := got.BreakdownAtPercentile(p), want.BreakdownAtPercentile(p); breakdownBits(g) != breakdownBits(w) {
			t.Fatalf("%s: P%v breakdown %+v, want %+v", what, p, g, w)
		}
	}
	for _, f := range []func(*Recorder) float64{(*Recorder).SLOCompliance, (*Recorder).Mean} {
		if g, w := f(got), f(want); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: aggregate %v, want %v", what, g, w)
		}
	}
	if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
		t.Fatalf("%s: snapshot %+v, want %+v", what, got.Snapshot(), want.Snapshot())
	}
}

// TestQuantileIndexMatchesReference pins the sorted quantile index to
// the stable-sort-and-scan reference, bitwise, on random recorders with
// forced ties, on chained views, on views taken before and after Add
// and Merge, and on recorders and merges sized around chunk boundaries.
func TestQuantileIndexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	id := 0
	// A store's doubling chunks fill at firstFull rows; each full-size
	// chunk after them ends chunkRows later.
	const firstFull = chunkRows - firstChunkRows
	for _, n := range []int{0, 1, firstFull - 1, firstFull, firstFull + 1, firstFull + chunkRows, firstFull + 3*chunkRows + 7} {
		name := func(s string) string { return fmt.Sprintf("size %d %s", n, s) }
		r := randomRecorder(rng, &id, n, nil)
		if got := r.Len(); got != n {
			t.Fatalf("%s: Len %d", name("all"), got)
		}
		if n == firstFull+chunkRows {
			if c := r.chunks[len(r.chunks)-1]; len(c.rows) != chunkRows {
				t.Fatalf("%s: last chunk holds %d rows, want a full chunk", name("all"), len(c.rows))
			}
		}
		checkAgainstReference(t, name("all"), r)
		checkAgainstReference(t, name("strict"), r.Strict())
		checkAgainstReference(t, name("chained"), r.BestEffort().ForModel("a"))
		// Both sources end in partial chunks unless n is a multiple of
		// the chunk size; the destination has a partial chunk of its own.
		dst := randomRecorder(rng, &id, 3, nil)
		dst.Merge(r, randomRecorder(rng, &id, n+5, nil))
		checkAgainstReference(t, name("merged"), dst)
		checkAgainstReference(t, name("merged strict"), dst.Strict())
		id++
		dst.Add(randomSample(rng, id))
		checkAgainstReference(t, name("merged then added"), dst)
	}

	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		id := 0
		next := func() Sample { id++; return randomSample(rng, id) }
		r := &Recorder{}
		for i := 0; i < 1500; i++ {
			r.Add(next())
		}
		name := func(s string) string { return fmt.Sprintf("seed %d %s", seed, s) }
		checkAgainstReference(t, name("all"), r)

		strict := r.Strict()
		chained := strict.ForModel("b").Filter(func(s Sample) bool { return s.Latency < 0.2 })
		tenant := forTenant(r.BestEffort(), "t1")
		views := map[string]*Recorder{"strict": strict, "chained": chained, "tenant": tenant}
		for k, v := range views {
			checkAgainstReference(t, name(k), v)
		}

		// Grow the parent by Add and Merge: it must re-index, and the
		// earlier views must still answer for their snapshots.
		for i := 0; i < 300; i++ {
			r.Add(next())
		}
		checkAgainstReference(t, name("after add"), r)
		other := &Recorder{}
		for i := 0; i < 400; i++ {
			other.Add(next())
		}
		r.Merge(other, other.Strict())
		checkAgainstReference(t, name("after merge"), r)
		for k, v := range views {
			checkAgainstReference(t, name(k+" before add/merge"), v)
		}
		checkAgainstReference(t, name("strict after add/merge"), r.Strict())
		checkAgainstReference(t, name("chained after add/merge"),
			forTenant(r, "t2").Strict().Filter(func(s Sample) bool { return s.Completed < 50 }))

		// Mutating a view materialises it; its index is rebuilt too.
		strict.Add(next())
		strict.Merge(other.BestEffort())
		checkAgainstReference(t, name("materialised view"), strict)
	}
}

// TestMergeTiesKeepNodeOrder asserts that latency ties across merged
// node recorders resolve to the lowest node's first-added sample, the
// order the cluster's node-order drain merge has always reported.
func TestMergeTiesKeepNodeOrder(t *testing.T) {
	tagged := func(node, k int, lat float64) Sample {
		return Sample{Model: "m", Strict: true, Latency: lat, SLO: 1, Weight: 1,
			Breakdown: gpu.Breakdown{Queue: float64(node), ColdStart: float64(k)}}
	}
	nodes := make([]*Recorder, 3)
	for i := range nodes {
		nodes[i] = &Recorder{}
	}
	// Sorted: 0.05 (node 2), 0.1 (node 0), then the tie at 1.0 in
	// (node, add order): n0#1, n0#2, n1#0, n2#1.
	nodes[0].Add(tagged(0, 0, 0.1))
	nodes[0].Add(tagged(0, 1, 1))
	nodes[0].Add(tagged(0, 2, 1))
	nodes[1].Add(tagged(1, 0, 1))
	nodes[2].Add(tagged(2, 0, 0.05))
	nodes[2].Add(tagged(2, 1, 1))
	merged := &Recorder{}
	merged.Merge(nodes...)
	for _, r := range []*Recorder{merged, merged.Strict()} {
		if got := r.BreakdownAtPercentile(50); got.Queue != 0 || got.ColdStart != 1 {
			t.Fatalf("P50 breakdown %+v, want node 0's first tied sample", got)
		}
		if got := r.BreakdownAtPercentile(100); got.Queue != 2 || got.ColdStart != 1 {
			t.Fatalf("P100 breakdown %+v, want node 2's tied sample (last in node order)", got)
		}
	}
}

// TestMergeVariadicMatchesSequential asserts one Merge(a, b, c) builds
// exactly the recorder Merge(a); Merge(b); Merge(c) builds, name table
// included, for views and nil arguments too.
func TestMergeVariadicMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mk := func(n int) *Recorder {
		r := &Recorder{}
		for i := 0; i < n; i++ {
			r.Add(randomSample(rng, i))
		}
		return r
	}
	a, b, c := mk(200), mk(300), mk(100)
	args := []*Recorder{a, nil, b.Strict(), c}
	prefix := mk(50)

	one := &Recorder{}
	one.Merge(prefix)
	one.Merge(args...)
	seq := &Recorder{}
	seq.Merge(prefix)
	for _, o := range args {
		seq.Merge(o)
	}
	if !reflect.DeepEqual(one, seq) {
		t.Fatalf("variadic merge differs from sequential merges")
	}
	if got, want := one.Requests(), prefix.Requests()+a.Requests()+b.Strict().Requests()+c.Requests(); got != want {
		t.Fatalf("merged requests %d, want %d", got, want)
	}
}

// TestMergeRemapsNameTables merges recorders whose model and tenant
// names were interned in different orders and checks the by-name views
// against a recorder that saw every sample directly.
func TestMergeRemapsNameTables(t *testing.T) {
	a, b, direct := &Recorder{}, &Recorder{}, &Recorder{}
	add := func(r *Recorder, s Sample) {
		r.Add(s)
		direct.Add(s)
	}
	add(a, Sample{Model: "A", Tenant: "x", Strict: true, Latency: 0.1, SLO: 0.2, Weight: 2})
	add(a, Sample{Model: "B", Tenant: "y", Strict: false, Latency: 0.3, Weight: 1})
	add(a, Sample{Model: "A", Tenant: "y", Strict: true, Latency: 0.4, SLO: 0.2, Weight: 1})
	add(b, Sample{Model: "y", Tenant: "B", Strict: true, Latency: 0.05, SLO: 0.2, Weight: 3})
	add(b, Sample{Model: "B", Tenant: "x", Strict: true, Latency: 0.5, SLO: 0.2, Weight: 1})
	add(b, Sample{Model: "A", Tenant: "", Strict: false, Latency: 0.2, Weight: 4})

	merged := &Recorder{}
	merged.Merge(a, b)
	if !reflect.DeepEqual(merged.Snapshot(), direct.Snapshot()) {
		t.Fatalf("snapshot %+v, want %+v", merged.Snapshot(), direct.Snapshot())
	}
	for _, name := range []string{"A", "B", "y", "x", "", "missing"} {
		for _, pair := range [][2]*Recorder{
			{merged.ForModel(name), direct.ForModel(name)},
			{forTenant(merged, name), forTenant(direct, name)},
		} {
			got, want := pair[0], pair[1]
			if got.Requests() != want.Requests() || got.Len() != want.Len() {
				t.Fatalf("%q: %d requests in %d samples, want %d in %d",
					name, got.Requests(), got.Len(), want.Requests(), want.Len())
			}
			if g, w := got.Percentile(99), want.Percentile(99); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%q: P99 %v, want %v", name, g, w)
			}
		}
	}
	// Filter predicates see the original names.
	var seen []string
	merged.Filter(func(s Sample) bool { seen = append(seen, s.Model+"/"+s.Tenant); return true })
	want := []string{"A/x", "B/y", "A/y", "y/B", "B/x", "A/"}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("filter saw %v, want %v", seen, want)
	}
}

// TestMergePartialChunks merges sources that end in partial chunks into
// a destination with rows of its own, then adds more, and checks the
// result against one recorder that saw every sample directly.
func TestMergePartialChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	id := 0
	direct := &Recorder{}
	dst := randomRecorder(rng, &id, 5, direct)
	dst.Merge(
		randomRecorder(rng, &id, chunkRows+1, direct),
		randomRecorder(rng, &id, 7, direct),
		randomRecorder(rng, &id, chunkRows-1, direct),
		randomRecorder(rng, &id, 2*chunkRows, direct),
	)
	for i := 0; i < 10; i++ {
		id++
		s := randomSample(rng, id)
		dst.Add(s)
		direct.Add(s)
	}
	sameAnswers(t, "merged", dst, direct)
	sameAnswers(t, "merged strict", dst.Strict(), direct.Strict())
	checkAgainstReference(t, "merged", dst)
}

// TestMergeSharesChunksWithoutAliasing asserts a merge takes the
// source's rows without copying them, and that neither side's later
// Adds are visible through the other, even once merged back.
func TestMergeSharesChunksWithoutAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	id := 0
	// The source's last chunk is partial, so its next Add lands in the
	// same backing array the destination now references.
	src := randomRecorder(rng, &id, chunkRows+3, nil)
	dst := randomRecorder(rng, &id, 3, nil)
	dst.Merge(src)
	if got, _ := dst.at(1 << chunkShift); got != &src.chunks[0].rows[0] {
		t.Fatalf("merge copied the source's rows")
	}
	srcBefore, dstBefore := samplesOf(src), samplesOf(dst)

	id++
	x := randomSample(rng, id)
	src.Add(x)
	if !reflect.DeepEqual(samplesOf(dst), dstBefore) {
		t.Fatalf("the source's Add after the merge is visible through the destination")
	}
	id++
	y := randomSample(rng, id)
	dst.Add(y)
	if !reflect.DeepEqual(samplesOf(src), append(srcBefore, x)) {
		t.Fatalf("the destination's Add is visible through the source")
	}
	if !reflect.DeepEqual(samplesOf(dst), append(dstBefore, y)) {
		t.Fatalf("the destination lost or gained samples")
	}
	checkAgainstReference(t, "source", src)
	checkAgainstReference(t, "destination", dst)

	// A chunk merged back into its owner ends at the length it had when
	// taken; the owner's next Add must not overwrite the rows it wrote
	// to that chunk in between.
	next := func() Sample { id++; return randomSample(rng, id) }
	a, b := &Recorder{}, &Recorder{}
	s1, s2, s3 := next(), next(), next()
	a.Add(s1)
	b.Merge(a)
	a.Add(s2)
	a.Merge(b)
	a.Add(s3)
	if got, want := samplesOf(a), []Sample{s1, s2, s1, s3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("merged-back chunk: samples %+v, want %+v", got, want)
	}
}

// TestMergeSelf asserts r.Merge(r) doubles r's samples in order and
// that r keeps recording afterwards.
func TestMergeSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	id := 0
	r := randomRecorder(rng, &id, chunkRows+5, nil)
	before, requests := samplesOf(r), r.Requests()
	r.Merge(r)
	want := append(slices.Clone(before), before...)
	if !reflect.DeepEqual(samplesOf(r), want) || r.Requests() != 2*requests {
		t.Fatalf("self-merge holds %d samples (%d requests), want %d (%d)",
			r.Len(), r.Requests(), len(want), 2*requests)
	}
	checkAgainstReference(t, "self-merged", r)
	id++
	s := randomSample(rng, id)
	r.Add(s)
	if !reflect.DeepEqual(samplesOf(r), append(want, s)) {
		t.Fatalf("Add after a self-merge recorded the wrong samples")
	}
	checkAgainstReference(t, "self-merged then added", r)
}

// TestMergeViewSourceMatchesPlain asserts that merging a view, whose
// rows are copied and re-interned, answers exactly as merging a plain
// recorder holding the same samples, whose chunks are taken.
func TestMergeViewSourceMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	id := 0
	view := forTenant(randomRecorder(rng, &id, 2*chunkRows+9, nil).Strict(), "t1")
	plain := &Recorder{}
	for _, s := range samplesOf(view) {
		plain.Add(s)
	}
	prefix := randomRecorder(rng, &id, 20, nil)
	a, b := &Recorder{}, &Recorder{}
	a.Merge(prefix, view)
	b.Merge(prefix, plain)
	sameAnswers(t, "view source", a, b)
	sameAnswers(t, "view source, model b", a.ForModel("b"), b.ForModel("b"))
	checkAgainstReference(t, "view source", a)
}

// TestViewAndParentAddsIsolated asserts a parent's Add is invisible
// through an existing view and a view's Add is invisible through its
// parent.
func TestViewAndParentAddsIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	id := 0
	r := randomRecorder(rng, &id, chunkRows+1, nil)
	v := r.Strict()
	rBefore, vBefore := samplesOf(r), samplesOf(v)
	id++
	x := randomSample(rng, id)
	x.Strict = true
	r.Add(x)
	if !reflect.DeepEqual(samplesOf(v), vBefore) {
		t.Fatalf("the parent's Add is visible through its view")
	}
	id++
	y := randomSample(rng, id)
	y.Strict = true
	v.Add(y)
	if !reflect.DeepEqual(samplesOf(r), append(rBefore, x)) {
		t.Fatalf("the view's Add is visible through its parent")
	}
	if !reflect.DeepEqual(samplesOf(v), append(vBefore, y)) {
		t.Fatalf("the view lost or gained samples")
	}
	checkAgainstReference(t, "parent", r)
	checkAgainstReference(t, "view", v)
}

// TestParentAddAfterViewDoesNotCopy asserts that taking a view costs the
// parent nothing later: its next Add allocates nothing while its tail
// chunk has room.
func TestParentAddAfterViewDoesNotCopy(t *testing.T) {
	r := &Recorder{}
	s := Sample{Model: "m", Tenant: "t", Strict: true, Latency: 0.1, SLO: 0.2, Weight: 1}
	for i := 0; i < chunkRows+1; i++ {
		r.Add(s)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	for i := 0; i < 10; i++ {
		v := r.Strict()
		runtime.ReadMemStats(&before)
		r.Add(s)
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Fatalf("Add after taking a view made %d allocations, want 0", n)
		}
		if v.Len() != chunkRows+1+i {
			t.Fatalf("view holds %d samples, want %d", v.Len(), chunkRows+1+i)
		}
	}
}

// BenchmarkDrainReport measures a cluster drain's metrics work: eight
// node recorders of 50k samples merged in one call, then the report's
// SLO compliance and first strict P99.
func BenchmarkDrainReport(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	nodes := make([]*Recorder, 8)
	for i := range nodes {
		nodes[i] = &Recorder{}
		for k := 0; k < 50000; k++ {
			nodes[i].Add(Sample{
				Model:     "ResNet 50",
				Strict:    rng.Intn(2) == 0,
				SLO:       0.3,
				Latency:   rng.ExpFloat64() * 0.1,
				Completed: float64(k) / 1000,
				Weight:    1,
			})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged := &Recorder{}
		merged.Merge(nodes...)
		drainSLO = merged.SLOCompliance()
		drainP99 = merged.Strict().Percentile(99)
	}
}

var drainSLO, drainP99 float64
