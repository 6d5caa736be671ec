package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"protean/internal/gpu"
)

// refSampleAt is the reference model of the exact quantile path: a
// stable sort of the visible positions by latency, then a linear scan
// of cumulative float64 weights.
func refSampleAt(r *Recorder, p float64) *row {
	idx := make([]int, 0, r.exactLen())
	if r.view != nil {
		idx = append(idx, r.view...)
	} else {
		for i := range r.rows {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return nil
	}
	sort.SliceStable(idx, func(a, b int) bool { return r.rows[idx[a]].Latency < r.rows[idx[b]].Latency })
	total := 0
	for _, i := range idx {
		total += r.rows[i].Weight
	}
	target := p / 100 * float64(total)
	cum := 0.0
	for _, i := range idx {
		cum += float64(r.rows[i].Weight)
		if cum >= target {
			return &r.rows[i]
		}
	}
	return &r.rows[idx[len(idx)-1]]
}

func breakdownBits(b gpu.Breakdown) [5]uint64 {
	return [5]uint64{
		math.Float64bits(b.Queue), math.Float64bits(b.ColdStart), math.Float64bits(b.MinPossible),
		math.Float64bits(b.Deficiency), math.Float64bits(b.Interference),
	}
}

// checkAgainstReference asserts Percentile, BreakdownAtPercentile and
// CDF(100) pick bitwise the sample the reference model picks.
func checkAgainstReference(t *testing.T, what string, r *Recorder) {
	t.Helper()
	for _, p := range []float64{0.1, 1, 50, 90, 99, 99.9, 100} {
		want := refSampleAt(r, p)
		if got := r.sampleAtPercentile(p); got != want {
			t.Fatalf("%s: P%v picked row %p, reference %p", what, p, got, want)
		}
		if want == nil {
			continue
		}
		if got := r.Percentile(p); math.Float64bits(got) != math.Float64bits(want.Latency) {
			t.Fatalf("%s: P%v = %v, reference %v", what, p, got, want.Latency)
		}
		if got := r.BreakdownAtPercentile(p); breakdownBits(got) != breakdownBits(want.Breakdown) {
			t.Fatalf("%s: P%v breakdown %+v, reference %+v", what, p, got, want.Breakdown)
		}
	}
	for i, pt := range r.CDF(100) {
		q := float64(i+1) / 100 * 100
		if want := refSampleAt(r, q); math.Float64bits(pt.Latency) != math.Float64bits(want.Latency) {
			t.Fatalf("%s: CDF point %d = %v, reference %v", what, i, pt.Latency, want.Latency)
		}
	}
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

// TestQuantileIndexMatchesReference pins the sorted quantile index to
// the stable-sort-and-scan reference, bitwise, on random recorders with
// forced ties, on chained views, and on views taken before and after
// Add and Merge.
func TestQuantileIndexMatchesReference(t *testing.T) {
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
		tenant := r.BestEffort().ForTenant("t1")
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
			r.ForTenant("t2").Strict().Filter(func(s Sample) bool { return s.Completed < 50 }))

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
			{merged.ForTenant(name), direct.ForTenant(name)},
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
