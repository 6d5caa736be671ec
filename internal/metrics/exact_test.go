package metrics

import (
	"cmp"
	"encoding/binary"
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

// latLess is the order the quantile index gives latencies: < for
// numbers, with every NaN after +Inf and NaNs tied.
func latLess(a, b float64) bool { return a < b || !math.IsNaN(a) && math.IsNaN(b) }

// refOrder is the reference model's order: the visible handles, stably
// sorted by latency.
func refOrder(r *Recorder) []uint32 {
	idx := visibleHandles(r)
	sort.SliceStable(idx, func(a, b int) bool { return latLess(latencyAt(r, idx[a]), latencyAt(r, idx[b])) })
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

// refSLOCompliance is the reference model of SLOCompliance: a scan of
// the visible rows.
func refSLOCompliance(r *Recorder) float64 {
	total, met := 0, 0
	r.eachExact(func(_ uint32, s *row, g *group, _ *nameTable) {
		if g.Strict {
			total += g.Weight
			if s.Latency <= g.SLO {
				met += g.Weight
			}
		}
	})
	if total == 0 {
		return math.NaN()
	}
	return float64(met) / float64(total)
}

// refGoodput is the reference model of Goodput: a walk of the visible
// rows that counts every request but the strict ones not meeting their
// SLO, a NaN latency among them.
func refGoodput(r *Recorder, duration float64) float64 {
	good := 0
	r.eachExact(func(_ uint32, s *row, g *group, _ *nameTable) {
		if !g.Strict || s.Latency <= g.SLO {
			good += g.Weight
		}
	})
	return float64(good) / duration
}

// checkAgainstReference asserts Percentile and BreakdownAtPercentile
// pick bitwise the sample the reference model picks, that SLOCompliance
// and Goodput, read from the counts kept at record time, equal a scan of
// the rows, and that every visible row's order key lies within the
// recorder's key bounds, which selection's first digit relies on.
func checkAgainstReference(t *testing.T, what string, r *Recorder) {
	t.Helper()
	if got, want := r.SLOCompliance(), refSLOCompliance(r); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: SLO compliance %v, scan %v", what, got, want)
	}
	if got, want := Goodput(r, 7), refGoodput(r, 7); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: goodput %v, row walk %v", what, got, want)
	}
	for _, h := range visibleHandles(r) {
		if k := latOrder(latencyAt(r, h)); (k^r.ordBase)&^r.ordDiff != 0 {
			t.Fatalf("%s: row %d has key %#x outside base %#x diff %#x", what, h, k, r.ordBase, r.ordDiff)
		}
	}
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

// oddRows is the view of the rows whose queueing delay is an odd whole
// number. Every stream here gives a row a queueing delay of its own, so
// the predicate reads a row field and cuts through groups as no group
// view does.
func oddRows(r *Recorder) *Recorder {
	return r.Filter(func(s Sample) bool { return math.Mod(s.Breakdown.Queue, 2) == 1 })
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

// TestQuantileIndexMatchesReference pins radix selection and the SLO
// counts to the stable-sort-and-scan reference, bitwise, on random
// recorders with forced ties, on chained views, on views taken before
// and after Add and Merge, on self-merges, and on recorders and merges
// sized around chunk boundaries. A sketch recorder fed the same samples
// gives the same SLO compliance.
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
		dst.Merge(dst)
		checkAgainstReference(t, name("self-merged"), dst)
		checkAgainstReference(t, name("self-merged odd rows"), oddRows(dst))
	}

	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		id := 0
		next := func() Sample { id++; return randomSample(rng, id) }
		r, sk := &Recorder{}, NewSketchRecorder()
		for i := 0; i < 1500; i++ {
			s := next()
			r.Add(s)
			sk.Add(s)
		}
		name := func(s string) string { return fmt.Sprintf("seed %d %s", seed, s) }
		checkAgainstReference(t, name("all"), r)
		for _, v := range []struct {
			name      string
			sk, exact *Recorder
		}{{"all", sk, r}, {"strict", sk.Strict(), r.Strict()}, {"best effort", sk.BestEffort(), r.BestEffort()}} {
			if got, want := v.sk.SLOCompliance(), refSLOCompliance(v.exact); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: sketch SLO compliance %v, scan %v", name("sketch "+v.name), got, want)
			}
		}

		strict := r.Strict()
		chained := strict.ForModel("b").Filter(func(s Sample) bool { return s.Latency < 0.2 })
		odd := oddRows(r.BestEffort())
		views := map[string]*Recorder{"strict": strict, "chained": chained, "odd best effort": odd}
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
		r.Merge(other)
		checkAgainstReference(t, name("after merge"), r)
		for k, v := range views {
			checkAgainstReference(t, name(k+" before add/merge"), v)
		}
		checkAgainstReference(t, name("strict after add/merge"), r.Strict())
		checkAgainstReference(t, name("chained after add/merge"),
			oddRows(r).Strict().Filter(func(s Sample) bool { return s.Completed < 50 }))
	}
}

// refSorted lists r's visible handles as slices.SortFunc orders them
// with the (latency, handle) comparator, NaN placed by latLess.
func refSorted(r *Recorder) []uint32 {
	hs := visibleHandles(r)
	slices.SortFunc(hs, func(a, b uint32) int {
		la, lb := latencyAt(r, a), latencyAt(r, b)
		switch {
		case latLess(la, lb):
			return -1
		case latLess(lb, la):
			return 1
		}
		return cmp.Compare(a, b)
	})
	return hs
}

// checkIndex asserts selection ranks r's rows exactly as refSorted does,
// bit for bit. Every weight is at least 1, so the row at which the
// running weight first reaches any target from one above the weight
// ordered before rank i up to the weight through rank i is the row at
// rank i. It checks both ends at up to 64 spread ranks and the last,
// and that a target past the total, or NaN, picks the last row; each
// check is a pass over the rows, so checking every rank would make the
// fuzz target quadratic.
func checkIndex(t *testing.T, what string, r *Recorder) {
	t.Helper()
	want := refSorted(r)
	step := max(1, len(want)/64)
	before := 0
	for i, h := range want {
		w := weightAt(r, h)
		if i%step == 0 || i == len(want)-1 {
			for _, target := range []int{before + 1, before + w} {
				if got := r.selectRow(float64(target)); got != h {
					t.Fatalf("%s: target %d selects row %d (latency %v), reference rank %d is row %d (latency %v)",
						what, target, got, latencyAt(r, got), i, h, latencyAt(r, h))
				}
			}
		}
		before += w
	}
	if len(want) == 0 {
		return
	}
	for _, target := range []float64{float64(before) + 1, math.Inf(1), math.NaN()} {
		if got, last := r.selectRow(target), want[len(want)-1]; got != last {
			t.Fatalf("%s: target %v selects row %d, want the last row %d", what, target, got, last)
		}
	}
}

// selectionOrder lists r's visible handles in the order selection ranks
// them: the row selected at one above the weight of the rows ranked
// before it.
func selectionOrder(r *Recorder) []uint32 {
	var order []uint32
	before := 0
	for range r.Len() {
		h := r.selectRow(float64(before + 1))
		order = append(order, h)
		before += weightAt(r, h)
	}
	return order
}

// fuzzWeights are the weights a fuzzed row picks from; the last is too
// large for the index's uint32, so its key reads the group instead.
var fuzzWeights = []int{1, 2, 7, math.MaxUint32 + 3}

// fuzzRecorder builds a recorder of n rows from 9-byte records of data,
// cycling through them: a record's first eight bytes are the latency's
// bits (little endian), and its ninth picks the weight (low two bits)
// and the class (bit 2). Cycling makes short inputs fill indexes with
// ties.
func fuzzRecorder(data []byte, n int) *Recorder {
	recs := len(data) / 9
	r := &Recorder{}
	for i := 0; recs > 0 && i < n; i++ {
		rec := data[9*(i%recs):]
		r.Add(Sample{
			Latency:   math.Float64frombits(binary.LittleEndian.Uint64(rec)),
			Strict:    rec[8]&4 != 0,
			Weight:    fuzzWeights[rec[8]&3],
			Breakdown: gpu.Breakdown{Queue: float64(i)},
		})
	}
	return r
}

// fuzzRecords encodes latencies as fuzzRecorder records, record i
// picking weight i%4 and class i/4%2.
func fuzzRecords(lats ...float64) []byte {
	var data []byte
	for i, l := range lats {
		data = binary.LittleEndian.AppendUint64(data, math.Float64bits(l))
		data = append(data, byte(i%8))
	}
	return data
}

// edgeLatencies are the latencies whose order a sort over float bits
// gets wrong unless it canonicalises -0, maps the sign and places NaN:
// both zeros, subnormals, negatives, infinities and NaNs of both signs
// and several payloads.
var edgeLatencies = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), 1, -1, 0.25, -0.25, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xfff8000000000001),
	math.Float64frombits(0x7ff0000000000001), 0.020000000000000004, 0.02,
}

// FuzzQuantileIndex checks radix selection against the slices.SortFunc
// reference bit for bit, on latencies from raw bit patterns.
func FuzzQuantileIndex(f *testing.F) {
	edge := fuzzRecords(edgeLatencies...)
	for _, n := range []uint16{0, 1, 2, 17, 3 * chunkRows} {
		f.Add(edge, n)
	}
	f.Add(fuzzRecords(1, 1, 1), uint16(133))
	f.Add(fuzzRecords(-2, 3, math.NaN()), uint16(256))
	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		r := fuzzRecorder(data, int(n)%(4*chunkRows))
		checkIndex(t, "all", r)
		checkIndex(t, "strict", r.Strict())
		checkAgainstReference(t, "all", r)
	})
}

// TestQuantileIndexEdgeLatencies checks selection on the edge latencies,
// once each and cycled into many ties, and pins NaN's place in the order
// selection ranks rows: after +Inf, in handle order, so P100 is a NaN
// latency while lower quantiles stay numbers.
func TestQuantileIndexEdgeLatencies(t *testing.T) {
	for _, n := range []int{len(edgeLatencies), 21*len(edgeLatencies) + 5} {
		r := fuzzRecorder(fuzzRecords(edgeLatencies...), n)
		what := fmt.Sprintf("%d rows", n)
		checkIndex(t, what, r)
		checkIndex(t, what+" strict", r.Strict())
		checkAgainstReference(t, what, r)

		order := selectionOrder(r)
		firstNaN := slices.IndexFunc(order, func(h uint32) bool { return math.IsNaN(latencyAt(r, h)) })
		for i, h := range order {
			if lat := latencyAt(r, h); math.IsNaN(lat) != (i >= firstNaN) {
				t.Fatalf("%s: rank %d has latency %v, NaNs start at %d", what, i, lat, firstNaN)
			}
			if i > firstNaN && h < order[i-1] {
				t.Fatalf("%s: NaN ranks %d and %d out of handle order", what, i-1, i)
			}
		}
		if got := latencyAt(r, order[firstNaN-1]); !math.IsInf(got, 1) {
			t.Fatalf("%s: the key before the NaNs has latency %v, want +Inf", what, got)
		}
		if got := r.Percentile(100); !math.IsNaN(got) {
			t.Fatalf("%s: P100 = %v, want NaN", what, got)
		}
		if got := r.Percentile(1); math.IsNaN(got) {
			t.Fatalf("%s: P1 is NaN", what)
		}
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
// included, for nil arguments too.
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
	args := []*Recorder{a, nil, b, c}
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
	if got, want := one.Requests(), prefix.Requests()+a.Requests()+b.Requests()+c.Requests(); got != want {
		t.Fatalf("merged requests %d, want %d", got, want)
	}
}

// TestMergeRemapsNameTables merges recorders whose model names were
// interned in different orders and checks the by-name views against a
// recorder that saw every sample directly.
func TestMergeRemapsNameTables(t *testing.T) {
	a, b, direct := &Recorder{}, &Recorder{}, &Recorder{}
	add := func(r *Recorder, s Sample) {
		r.Add(s)
		direct.Add(s)
	}
	add(a, Sample{Model: "A", Strict: true, Latency: 0.1, SLO: 0.2, Weight: 2})
	add(a, Sample{Model: "B", Strict: false, Latency: 0.3, Weight: 1})
	add(a, Sample{Model: "A", Strict: true, Latency: 0.4, SLO: 0.2, Weight: 1})
	add(b, Sample{Model: "y", Strict: true, Latency: 0.05, SLO: 0.2, Weight: 3})
	add(b, Sample{Model: "B", Strict: true, Latency: 0.5, SLO: 0.2, Weight: 1})
	add(b, Sample{Model: "A", Strict: false, Latency: 0.2, Weight: 4})

	merged := &Recorder{}
	merged.Merge(a, b)
	if !reflect.DeepEqual(merged.Snapshot(), direct.Snapshot()) {
		t.Fatalf("snapshot %+v, want %+v", merged.Snapshot(), direct.Snapshot())
	}
	for _, name := range []string{"A", "B", "y", "", "missing"} {
		got, want := merged.ForModel(name), direct.ForModel(name)
		if got.Requests() != want.Requests() || got.Len() != want.Len() {
			t.Fatalf("%q: %d requests in %d samples, want %d in %d",
				name, got.Requests(), got.Len(), want.Requests(), want.Len())
		}
		if g, w := got.Percentile(99), want.Percentile(99); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%q: P99 %v, want %v", name, g, w)
		}
	}
	// Filter predicates see the original names.
	var seen []string
	merged.Filter(func(s Sample) bool { seen = append(seen, s.Model); return true })
	want := []string{"A", "B", "A", "y", "B", "A"}
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

// TestParentAddAfterViewDoesNotCopy asserts that taking a view costs the
// parent nothing later: its next Add allocates nothing while its tail
// chunk has room.
func TestParentAddAfterViewDoesNotCopy(t *testing.T) {
	r := &Recorder{}
	s := Sample{Model: "m", Strict: true, Latency: 0.1, SLO: 0.2, Weight: 1}
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

// TestClassViewsReserveTheirWeight asserts Strict and BestEffort reserve
// handles for their class's weight, a bound on their rows, rather than
// for the whole parent: with weight-1 rows the reservation is exact.
func TestClassViewsReserveTheirWeight(t *testing.T) {
	r := &Recorder{}
	for i := 0; i < 3*chunkRows; i++ {
		r.Add(Sample{Model: "m", Strict: i%3 == 0, Latency: float64(i), SLO: 1, Weight: 1})
	}
	for _, v := range []*Recorder{r.Strict(), r.BestEffort()} {
		if len(v.view) != cap(v.view) || len(v.view) != v.Requests() {
			t.Fatalf("view holds %d handles in %d reserved, weighing %d", len(v.view), cap(v.view), v.Requests())
		}
	}
}

// TestViewsAndMixedModesRejectWrites asserts views are read-only in
// both modes and Merge takes only whole recorders of the receiver's
// mode: each write below panics.
func TestViewsAndMixedModesRejectWrites(t *testing.T) {
	s := Sample{Model: "m", Strict: true, Latency: 0.1, SLO: 0.2, Weight: 1}
	exact, sketch := &Recorder{}, NewSketchRecorder()
	exact.Add(s)
	sketch.Add(s)
	row := []BatchRow{{Latency: 0.1}}
	for _, tc := range []struct {
		name  string
		write func()
	}{
		{"Add to an exact view", func() { exact.Strict().Add(s) }},
		{"AddBatch to an exact view", func() { exact.Strict().AddBatch(s, row) }},
		{"Merge into an exact view", func() { exact.Strict().Merge(&Recorder{}) }},
		{"Add to a sketch view", func() { sketch.Strict().Add(s) }},
		{"AddBatch to a sketch view", func() { sketch.Strict().AddBatch(s, row) }},
		{"Merge into a sketch view", func() { sketch.Strict().Merge(NewSketchRecorder()) }},
		{"Merge an exact view", func() { (&Recorder{}).Merge(exact.Strict()) }},
		{"Merge a sketch view", func() { NewSketchRecorder().Merge(sketch.Strict()) }},
		{"Merge a sketch recorder into an exact one", func() { (&Recorder{}).Merge(sketch) }},
		{"Merge an exact recorder into a sketch one", func() { NewSketchRecorder().Merge(exact) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.write()
		}()
	}
	if exact.Len() != 1 || sketch.Len() != 1 {
		t.Fatalf("a rejected write changed a parent: exact %d, sketch %d samples", exact.Len(), sketch.Len())
	}
}

// TestSelectionWorstCases runs selection where its digits narrow
// least: every row one latency, so no digit splits the rows, and two
// latencies, so a bucket holds a third or more of them. Each spans at
// least three chunks, is recorded by Add and by AddBatch, and is checked
// whole, through views and merged.
func TestSelectionWorstCases(t *testing.T) {
	const n = 3*chunkRows + 100
	for _, tc := range []struct {
		name string
		lat  func(i int) float64
	}{
		{"one latency", func(int) float64 { return 0.05 }},
		{"one latency, -0 and 0", func(i int) float64 { return []float64{0, math.Copysign(0, -1)}[i%2] }},
		{"two latencies", func(i int) float64 { return []float64{0.05, 0.5}[i%3/2] }},
		{"two latencies, far apart", func(i int) float64 { return []float64{-math.MaxFloat64, math.Inf(1)}[i*7%5/4] }},
	} {
		added, batched := &Recorder{}, &Recorder{}
		for i := 0; i < n; i += 32 {
			shared := Sample{Model: "m", Strict: i/32%2 == 0, SLO: 0.1, Weight: 1 + i/32%3}
			rows := make([]BatchRow, min(32, n-i))
			for k := range rows {
				rows[k] = BatchRow{Latency: tc.lat(i + k), Queue: float64(i + k)}
				added.Add(rows[k].Sample(shared))
			}
			batched.AddBatch(shared, rows)
		}
		merged := &Recorder{}
		merged.Merge(added, batched, added)
		for _, r := range []struct {
			name string
			r    *Recorder
		}{
			{"added", added}, {"batched", batched}, {"strict", batched.Strict()},
			{"odd rows", oddRows(added)}, {"merged", merged}, {"merged best effort", merged.BestEffort()},
		} {
			what := tc.name + " " + r.name
			checkAgainstReference(t, what, r.r)
			checkIndex(t, what, r.r)
		}
	}
}

// TestSelectionWeightBound pins the bound selection's exactness needs:
// it sums weights as integers and compares each prefix, as a float64,
// with the target, while the reference sums float64 weights one at a
// time. The two agree while every prefix is exact in a float64, that is
// while Requests() is at most 2^53. These recorders weigh exactly 2^53.
func TestSelectionWeightBound(t *testing.T) {
	const total = 1 << 53
	for _, heavyAt := range []int{0, 3, 9} {
		r := &Recorder{}
		for i := 0; i < 10; i++ {
			w := 1
			if i == heavyAt {
				w = total - 9
			}
			r.Add(Sample{Latency: float64(i%4) / 8, Strict: i%2 == 0, SLO: 0.2, Weight: w, Breakdown: gpu.Breakdown{Queue: float64(i)}})
		}
		if r.Requests() != total {
			t.Fatalf("recorder weighs %d, want 2^53", r.Requests())
		}
		what := fmt.Sprintf("heavy row %d", heavyAt)
		checkAgainstReference(t, what, r)
		checkIndex(t, what, r)
	}
}

// drainNodes builds the eight node recorders BenchmarkDrainReport
// merges, each of 50k samples recorded as node(i) records them.
func drainNodes(node func(r *Recorder, rng *rand.Rand)) []*Recorder {
	rng := rand.New(rand.NewSource(1))
	nodes := make([]*Recorder, 8)
	for i := range nodes {
		nodes[i] = &Recorder{}
		node(nodes[i], rng)
	}
	return nodes
}

// batch32 records 50k requests as cluster.complete does: AddBatch calls
// of 32 rows that share one class, alternating, and one completion
// time. lat draws each row's latency.
func batch32(lat func(rng *rand.Rand) float64) func(r *Recorder, rng *rand.Rand) {
	return func(r *Recorder, rng *rand.Rand) {
		rows := make([]BatchRow, 32)
		for k := 0; k < 50000; k += len(rows) {
			for j := range rows {
				rows[j] = BatchRow{Latency: lat(rng), Queue: float64(j) * 0.001}
			}
			r.AddBatch(Sample{Model: "ResNet 50", Strict: k/32%2 == 0, SLO: 0.3, Completed: float64(k) / 1000, Weight: 1}, rows)
		}
	}
}

// BenchmarkDrainReport measures a cluster drain's metrics work: eight
// node recorders merged in one call, then the report's SLO compliance
// and first strict P99. "add" records each node's 50k samples one Add at
// a time, "batch32" as the cluster does, and "ties" is batch32 with
// every latency equal, selection's worst case.
func BenchmarkDrainReport(b *testing.B) {
	for _, shape := range []struct {
		name string
		node func(r *Recorder, rng *rand.Rand)
	}{
		{"add", func(r *Recorder, rng *rand.Rand) {
			for k := 0; k < 50000; k++ {
				r.Add(Sample{
					Model:     "ResNet 50",
					Strict:    rng.Intn(2) == 0,
					SLO:       0.3,
					Latency:   rng.ExpFloat64() * 0.1,
					Completed: float64(k) / 1000,
					Weight:    1,
				})
			}
		}},
		{"batch32", batch32(func(rng *rand.Rand) float64 { return rng.ExpFloat64() * 0.1 })},
		{"ties", batch32(func(*rand.Rand) float64 { return 0.05 })},
	} {
		b.Run(shape.name, func(b *testing.B) {
			nodes := drainNodes(shape.node)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				merged := &Recorder{}
				merged.Merge(nodes...)
				drainSLO = merged.SLOCompliance()
				drainP99 = merged.Strict().Percentile(99)
			}
		})
	}
}

var drainSLO, drainP99 float64

// BenchmarkQuantileIndex measures one P99 selection over 200k
// cluster-shaped rows (clusterSample).
func BenchmarkQuantileIndex(b *testing.B) {
	r := &Recorder{}
	for i := 0; i < 200000; i++ {
		r.Add(clusterSample(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.memoOK = false
		drainP99 = r.Percentile(99)
	}
}
