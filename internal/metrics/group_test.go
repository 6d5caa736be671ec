package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"protean/internal/gpu"
)

// sampleBits is a Sample with every float replaced by its bits, so ==
// tells -0.0 from 0.0 and matches a NaN with itself.
type sampleBits struct {
	model                   string
	strict                  bool
	latency, slo, completed uint64
	breakdown               [5]uint64
	weight                  int
}

func bitsOf(s Sample) sampleBits {
	return sampleBits{
		model: s.Model, strict: s.Strict,
		latency:   math.Float64bits(s.Latency),
		slo:       math.Float64bits(s.SLO),
		completed: math.Float64bits(s.Completed),
		breakdown: breakdownBits(s.Breakdown),
		weight:    s.Weight,
	}
}

// sample rebuilds the public form of a row and its group, whose model id
// indexes t.
func (t *nameTable) sample(s *row, g *group) Sample {
	return Sample{
		Model:     t.names[g.model],
		Strict:    g.Strict,
		Latency:   s.Latency,
		SLO:       g.SLO,
		Breakdown: g.breakdown(s.Queue),
		Completed: g.Completed,
		Weight:    g.Weight,
	}
}

// Filter returns the exact view of the visible samples matching pred,
// over clipped references to r's chunks. It builds a Sample per row: it
// is the reference the group views, which never build one, must match
// (TestGroupViewsMatchFilter), and the way tests select rows by a
// row's own fields.
func (r *Recorder) Filter(pred func(Sample) bool) *Recorder {
	r.mustRows("Filter")
	out := r.emptyView(r.exactLen())
	r.eachExact(func(h uint32, s *row, g *group, t *nameTable) {
		if pred(t.sample(s, g)) {
			out.appendRow(h, s, g)
		}
	})
	return out
}

// exactSamples reads a recorder's visible samples straight off eachExact.
func exactSamples(r *Recorder) []Sample {
	var out []Sample
	r.eachExact(func(_ uint32, s *row, g *group, t *nameTable) { out = append(out, t.sample(s, g)) })
	return out
}

// sameBits asserts two sample lists are equal bit for bit.
func sameBits(t *testing.T, what string, got, want []Sample) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, want %d", what, len(got), len(want))
	}
	for i := range got {
		if bitsOf(got[i]) != bitsOf(want[i]) {
			t.Fatalf("%s: sample %d is %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// groupedStream draws n samples in runs that share every group field,
// the shape a cluster node records a batch in. Each run's latencies and
// queueing delays vary per sample. A new run either
// perturbs exactly one group field of the last (flipping 0.0 to -0.0,
// swapping in a NaN of another payload, or stepping one ulp) or draws a
// fresh group. Every float field, per-sample ones included, draws from
// values whose bits a lossy store would change.
func groupedStream(rng *rand.Rand, n int) []Sample {
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), nan2, 0.25, math.Nextafter(0.25, 1), math.Inf(1), 3}
	pick := func() float64 { return floats[rng.Intn(len(floats))] }
	// perturb returns a value whose bits differ from v's.
	perturb := func(v float64) float64 {
		for {
			if w := pick(); math.Float64bits(w) != math.Float64bits(v) {
				return w
			}
		}
	}
	fresh := func() Sample {
		return Sample{
			Model:  []string{"a", "b", "c"}[rng.Intn(3)],
			Strict: rng.Intn(2) == 0,
			SLO:    pick(), Completed: pick(),
			Breakdown: gpu.Breakdown{ColdStart: pick(), MinPossible: pick(), Deficiency: pick(), Interference: pick()},
			Weight:    []int{1, 2, 7, math.MaxUint32 + 3}[rng.Intn(4)],
		}
	}
	base := fresh()
	var out []Sample
	for len(out) < n {
		switch rng.Intn(11) {
		case 0:
			base.Model += "'"
		case 1:
			base.Strict = !base.Strict
		case 2:
			base.SLO = perturb(base.SLO)
		case 3:
			base.Completed = perturb(base.Completed)
		case 4:
			base.Breakdown.ColdStart = perturb(base.Breakdown.ColdStart)
		case 5:
			base.Breakdown.MinPossible = perturb(base.Breakdown.MinPossible)
		case 6:
			base.Breakdown.Deficiency = perturb(base.Breakdown.Deficiency)
		case 7:
			base.Breakdown.Interference = perturb(base.Breakdown.Interference)
		case 8:
			base.Weight++
		default:
			base = fresh()
		}
		// Mostly batch-sized runs, sometimes one long enough to straddle a
		// chunk boundary.
		k := 1 + rng.Intn(40)
		if rng.Intn(20) == 0 {
			k = chunkRows / 2
		}
		for i := 0; i < k && len(out) < n; i++ {
			s := base
			s.Latency = rng.ExpFloat64() * 0.1
			if rng.Intn(4) == 0 {
				s.Latency = []float64{math.Copysign(0, -1), 0, 0.25}[rng.Intn(3)]
			}
			s.Breakdown.Queue = float64(len(out))
			if rng.Intn(8) == 0 {
				s.Breakdown.Queue = math.Copysign(0, -1)
			}
			out = append(out, s)
		}
	}
	return out
}

// sameGroupFields reports whether two samples would share a group.
func sameGroupFields(a, b Sample) bool {
	a.Latency, a.Breakdown.Queue = b.Latency, b.Breakdown.Queue
	return bitsOf(a) == bitsOf(b)
}

// TestGroupedRoundTrip feeds seeded streams of samples with runs of
// shared fields through every exact-mode path that reads, copies or
// shares rows, and checks each gives back its input bit for bit. It also
// checks the layout: a new group starts exactly where a group field's
// bits change or a chunk begins, so runs are shared and -0.0, NaN
// payloads and one-ulp steps never merge.
func TestGroupedRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := groupedStream(rng, 3*chunkRows+int(seed)*97)
		name := func(s string) string { return fmt.Sprintf("seed %d %s", seed, s) }
		r := &Recorder{}
		for _, s := range in {
			r.Add(s)
		}

		i, groups, straddles := 0, 0, 0
		for ci, c := range r.chunks {
			want := 0
			for k := range c.rows {
				if k == 0 || !sameGroupFields(in[i], in[i-1]) {
					want++
				}
				if k == 0 && ci > 0 && sameGroupFields(in[i], in[i-1]) {
					straddles++
				}
				i++
			}
			if len(c.groups) != want {
				t.Fatalf("%s: chunk %d holds %d groups, want %d", name("layout"), ci, len(c.groups), want)
			}
			groups += want
		}
		if groups*4 > len(in) {
			t.Fatalf("%s: %d groups for %d samples; the stream barely shares", name("layout"), groups, len(in))
		}
		if straddles == 0 {
			t.Fatalf("%s: no group straddles a chunk boundary", name("layout"))
		}

		sameBits(t, name("eachExact"), exactSamples(r), in)
		sameBits(t, name("filter all"), samplesOf(r), in)
		pred := func(s Sample) bool { return s.Latency < 0.05 }
		var filtered []Sample
		for _, s := range in {
			if pred(s) {
				filtered = append(filtered, s)
			}
		}
		view := r.Filter(pred)
		sameBits(t, name("view"), exactSamples(view), filtered)

		merged := &Recorder{}
		merged.Add(in[0])
		merged.Merge(r)
		sameBits(t, name("merge"), exactSamples(merged), slices.Concat(in[:1], in))

		self := &Recorder{}
		for _, s := range in {
			self.Add(s)
		}
		self.Merge(self)
		self.Add(in[1])
		sameBits(t, name("self-merge"), exactSamples(self), slices.Concat(in, in, in[1:2]))
	}
}

// TestGroupedQuantileIndexMatchesReference runs the stable-sort-and-scan
// reference model over grouped inputs: weights shared by long runs,
// weights too large for the index's uint32, and views and merges whose
// handles cut through groups.
func TestGroupedQuantileIndexMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		name := func(s string) string { return fmt.Sprintf("seed %d %s", seed, s) }
		r := &Recorder{}
		for _, s := range groupedStream(rng, 2*chunkRows+31) {
			r.Add(s)
		}
		checkAgainstReference(t, name("all"), r)
		checkAgainstReference(t, name("strict"), r.Strict())
		checkAgainstReference(t, name("odd rows"), oddRows(r))
		dst := &Recorder{}
		for _, s := range groupedStream(rng, 50) {
			dst.Add(s)
		}
		dst.Merge(r, dst)
		checkAgainstReference(t, name("merged"), dst)
		checkAgainstReference(t, name("merged model a"), dst.ForModel("a"))
	}
}

// groupViews are the views that read only group fields, each with the row
// predicate Filter would need for the same subset.
var groupViews = []struct {
	name string
	view func(*Recorder) *Recorder
	pred func(Sample) bool
}{
	{"strict", (*Recorder).Strict, func(s Sample) bool { return s.Strict }},
	{"best effort", (*Recorder).BestEffort, func(s Sample) bool { return !s.Strict }},
	{"model a", func(r *Recorder) *Recorder { return r.ForModel("a") }, func(s Sample) bool { return s.Model == "a" }},
	{"model b'", func(r *Recorder) *Recorder { return r.ForModel("b'") }, func(s Sample) bool { return s.Model == "b'" }},
	{"absent model", func(r *Recorder) *Recorder { return r.ForModel("z") }, func(s Sample) bool { return s.Model == "z" }},
	{"completed within 0.25", func(r *Recorder) *Recorder { return r.completedWithin(0.25) }, func(s Sample) bool { return s.Completed <= 0.25 }},
	{"completed within 3", func(r *Recorder) *Recorder { return r.completedWithin(3) }, func(s Sample) bool { return s.Completed <= 3 }},
	{"completed within NaN", func(r *Recorder) *Recorder { return r.completedWithin(math.NaN()) }, func(Sample) bool { return false }},
}

// sameView asserts two views of one recorder select the same handles
// and weight over the same clipped chunks, and so the same samples.
func sameView(t *testing.T, what string, got, want *Recorder) {
	t.Helper()
	if !slices.Equal(visibleHandles(got), visibleHandles(want)) || got.weightSum != want.weightSum {
		t.Fatalf("%s: %d handles weighing %d, Filter gives %d weighing %d",
			what, len(visibleHandles(got)), got.weightSum, len(visibleHandles(want)), want.weightSum)
	}
	if len(got.chunks) != len(want.chunks) {
		t.Fatalf("%s: %d chunks, Filter gives %d", what, len(got.chunks), len(want.chunks))
	}
	for i := range got.chunks {
		g, w := got.chunks[i], want.chunks[i]
		if len(g.rows) != len(w.rows) || cap(g.rows) != len(g.rows) || len(g.groups) != len(w.groups) || cap(g.groups) != len(g.groups) {
			t.Fatalf("%s: chunk %d holds %d/%d rows and %d/%d groups, Filter's %d and %d, clipped",
				what, i, len(g.rows), cap(g.rows), len(g.groups), cap(g.groups), len(w.rows), len(w.groups))
		}
	}
	sameBits(t, what, exactSamples(got), exactSamples(want))
}

// TestGroupViewsMatchFilter asserts Strict, BestEffort, ForModel and
// completedWithin, which read group fields without building a Sample,
// select exactly what Filter selects with the equivalent row predicate:
// on grouped streams whose groups straddle chunk boundaries, on merges
// of recorders with their own name tables (a self-merge included), on
// views of views, and on views taken before the parent grows by Add
// and Merge, which must keep their snapshots.
func TestGroupViewsMatchFilter(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		name := func(s string) string { return fmt.Sprintf("seed %d %s", seed, s) }
		record := func(n int) *Recorder {
			r := &Recorder{}
			for _, s := range groupedStream(rng, n) {
				r.Add(s)
			}
			return r
		}
		check := func(what string, r *Recorder) {
			t.Helper()
			for _, v := range groupViews {
				sameView(t, name(what+" "+v.name), v.view(r), r.Filter(v.pred))
			}
		}

		r := record(2*chunkRows + 77)
		check("all", r)
		for _, v := range groupViews[:3] {
			check(v.name+" view", v.view(r))
		}
		check("odd rows view", oddRows(r))

		merged := record(40)
		merged.Merge(r, record(chunkRows+3), merged)
		check("merged", merged)
		check("merged strict view", merged.Strict())

		type pair struct{ got, want *Recorder }
		before := map[string]pair{}
		for _, v := range groupViews {
			before[v.name] = pair{v.view(merged), merged.Filter(v.pred)}
		}
		strictBefore := exactSamples(before["strict"].got)
		for _, s := range groupedStream(rng, 300) {
			merged.Add(s)
		}
		merged.Merge(record(chunkRows / 2))
		for _, v := range groupViews {
			p := before[v.name]
			sameView(t, name("before add and merge "+v.name), p.got, p.want)
		}
		sameBits(t, name("strict snapshot"), exactSamples(before["strict"].got), strictBefore)
		check("after add and merge", merged)
	}
}

// clusterSample is the n-th sample of a cluster-shaped stream: batches
// of 32 requests that share every group field, each with its own
// latency and queueing delay.
func clusterSample(n int) Sample {
	b := n / 32
	done := float64(b) * 0.01
	return Sample{
		Model:     "ResNet 50",
		Strict:    b%2 == 0,
		Latency:   0.02 + float64(n%32)*0.001,
		SLO:       0.1,
		Breakdown: gpu.Breakdown{Queue: float64(n%32) * 0.001, MinPossible: 0.012, Deficiency: 0.003, Interference: 0.001},
		Completed: done,
		Weight:    1,
	}
}

// distinctSample is clusterSample with a completion time of its own, so
// every sample starts a group, as in the control plane's per-tenant
// recorders: the layout's worst case.
func distinctSample(n int) Sample {
	s := clusterSample(n)
	s.Completed = float64(n)
	return s
}

// TestRowLayoutMemory pins the exact-mode row at 24 bytes and bounds
// what recording cluster-shaped and distinct samples allocates per row.
func TestRowLayoutMemory(t *testing.T) {
	if got := unsafe.Sizeof(row{}); got != 24 {
		t.Fatalf("row is %d bytes, want 24", got)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		name   string
		sample func(int) Sample
		bound  float64
	}{
		// Measured: 26.5 B per row. That is the 24-byte row, plus the
		// unused end of the last 1024-row chunk, plus each chunk's group
		// slice: 33 batches of 64-byte groups, reserved at the previous
		// chunk's rate. 32 B leaves room for allocator size classes and
		// still fails if the row grows by a field or rows stop sharing
		// groups (the former 88-byte row measured 93.8 B per row here).
		{"cluster-shaped", clusterSample, 32},
		// Measured: 88.5 B per row, a 24-byte row and a 64-byte group.
		// 96 B still fails if groups grow by append instead of being
		// reserved (232 B per row) or the group grows by a field.
		{"distinct", distinctSample, 96},
	} {
		const n = 100000
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := &Recorder{}
		for i := 0; i < n; i++ {
			r.Add(tc.sample(i))
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(r)
		perRow := float64(after.TotalAlloc-before.TotalAlloc) / n
		t.Logf("%s: %.1f B allocated per row", tc.name, perRow)
		if perRow > tc.bound {
			t.Fatalf("recording %d %s samples allocated %.1f B per row, want at most %.0f", n, tc.name, perRow, tc.bound)
		}
	}
}

// BenchmarkRecorderAddBatches measures exact-mode ingest of
// cluster-shaped samples: batches of 32 that share one group.
func BenchmarkRecorderAddBatches(b *testing.B) {
	r := &Recorder{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Add(clusterSample(i))
	}
}

// BenchmarkRecorderAddDistinct measures exact-mode ingest when every
// sample starts a group of its own (distinctSample).
func BenchmarkRecorderAddDistinct(b *testing.B) {
	r := &Recorder{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Add(distinctSample(i))
	}
}
