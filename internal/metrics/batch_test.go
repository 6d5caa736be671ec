package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"protean/internal/gpu"
)

// recordedBatch is one AddBatch call's arguments.
type recordedBatch struct {
	shared Sample
	rows   []BatchRow
}

// batchStream draws batches shaped like a cluster node's completions,
// with the corner cases AddBatch must store exactly as per-row Add does:
// empty row slices, weights ≤ 0, -0.0 and NaN group fields, -0.0 queueing
// delays, batches long enough to cross a chunk boundary, and runs of
// batches whose shared fields repeat, so a batch may join the group the
// last one left open.
func batchStream(rng *rand.Rand, n int) []recordedBatch {
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), 0.25, math.Nextafter(0.25, 1), 3}
	pick := func() float64 { return floats[rng.Intn(len(floats))] }
	var out []recordedBatch
	var shared Sample
	for i := 0; i < n; i++ {
		if i == 0 || rng.Intn(3) > 0 {
			shared = Sample{
				Model:     []string{"a", "b", "c"}[rng.Intn(3)],
				Strict:    rng.Intn(2) == 0,
				SLO:       pick(),
				Completed: pick(),
				Breakdown: gpu.Breakdown{
					// The shared Queue is always overridden by a row's.
					Queue:     pick(),
					ColdStart: pick(), MinPossible: pick(), Deficiency: pick(), Interference: pick(),
				},
				Weight: []int{-3, 0, 1, 1, 2}[rng.Intn(5)],
				// Shared tenants are overridden by a row's too.
				Tenant: "ignored",
			}
		}
		k := []int{0, 1, 5, 32, 128}[rng.Intn(5)]
		if rng.Intn(10) == 0 {
			k = chunkRows + rng.Intn(chunkRows)
		}
		rows := make([]BatchRow, k)
		for j := range rows {
			rows[j] = BatchRow{
				Latency: rng.ExpFloat64() * 0.1,
				Queue:   []float64{math.Copysign(0, -1), 0, rng.Float64()}[rng.Intn(3)],
				Tenant:  []string{"", "", "t1", "t2"}[rng.Intn(4)],
			}
			if rng.Intn(8) == 0 {
				rows[j].Latency = []float64{math.Copysign(0, -1), 0, 0.25}[rng.Intn(3)]
			}
		}
		out = append(out, recordedBatch{shared: shared, rows: rows})
	}
	return out
}

// layout describes an exact recorder's storage: its weight sum, name
// table and whether it is a view, then per chunk its row count, row
// capacity and group count and every row's group and tenant ids.
// Recording the same samples the same way gives the same layout.
func layout(r *Recorder) []any {
	out := []any{r.weightSum, r.view != nil}
	if r.names != nil {
		out = append(out, r.names.names)
	}
	for _, c := range r.chunks {
		ids := make([]uint32, 0, 2*len(c.rows))
		for _, s := range c.rows {
			ids = append(ids, s.group, s.tenant)
		}
		out = append(out, [3]int{len(c.rows), cap(c.rows), len(c.groups)}, ids)
	}
	return out
}

// sameRecorded asserts got and want hold bitwise the same samples and
// give bitwise the same answers.
func sameRecorded(t *testing.T, what string, got, want *Recorder) {
	t.Helper()
	if got.Len() != want.Len() || got.Requests() != want.Requests() {
		t.Fatalf("%s: %d requests in %d samples, want %d in %d", what, got.Requests(), got.Len(), want.Requests(), want.Len())
	}
	if want.sk == nil {
		sameBits(t, what, exactSamples(got), exactSamples(want))
		if g, w := layout(got), layout(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: layout\n%v\nwant\n%v", what, g, w)
		}
	} else if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
		t.Fatalf("%s: snapshot %+v, want %+v", what, got.Snapshot(), want.Snapshot())
	}
	for _, p := range []float64{1, 50, 90, 99, 100} {
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
}

// TestAddBatchMatchesPerRowAdd is a property test: for seeded streams of
// batches, recording each with one AddBatch call must store and answer
// exactly what one Add per row stores and answers — into a fresh exact
// recorder and in sketch mode. Single Adds are interleaved, so a batch
// sometimes continues the group an Add left open and vice versa.
func TestAddBatchMatchesPerRowAdd(t *testing.T) {
	modes := []struct {
		name  string
		fresh func() *Recorder
	}{
		{"exact", func() *Recorder { return &Recorder{} }},
		{"sketch", NewSketchRecorder},
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stream := batchStream(rng, 48)
		for _, mode := range modes {
			what := fmt.Sprintf("seed %d %s", seed, mode.name)
			got, want := mode.fresh(), mode.fresh()
			// in is every sample recorded so far, with its weight
			// normalized: what an exact recorder must read back.
			var in []Sample
			crossed := false
			for i, b := range stream {
				got.AddBatch(b.shared, b.rows)
				norm := b.shared
				norm.Weight = max(norm.Weight, 1)
				for _, rw := range b.rows {
					want.Add(rw.Sample(b.shared))
					in = append(in, rw.Sample(norm))
				}
				if n := len(got.chunks); n > 0 && len(b.rows) > len(got.chunks[n-1].rows) {
					crossed = true
				}
				if i%7 == 3 && len(b.rows) > 0 {
					// A lone Add with the batch's shared fields joins its group.
					s := b.rows[0].Sample(norm)
					got.Add(s)
					want.Add(s)
					in = append(in, s)
				}
				if i%8 == 7 || len(b.rows) > chunkRows {
					what := fmt.Sprintf("%s after batch %d (%d rows)", what, i, len(b.rows))
					sameRecorded(t, what, got, want)
					if got.sk == nil {
						sameBits(t, what+" read back", exactSamples(got), in)
					}
				}
			}
			if mode.name == "exact" && !crossed {
				t.Fatalf("%s: no batch crossed a chunk boundary", what)
			}
		}
	}
}

// TestAddBatchEmpty: recording no rows changes nothing and, like making
// no Add call at all, does not panic even on a view, exact or sketch.
func TestAddBatchEmpty(t *testing.T) {
	parent := &Recorder{}
	for i := 0; i < 40; i++ {
		parent.Add(clusterSample(i))
	}
	view := parent.Strict()
	view.AddBatch(clusterSample(0), nil)
	if view.view == nil {
		t.Fatal("an empty AddBatch turned a view into a whole recorder")
	}
	sk := NewSketchRecorder()
	sk.Add(clusterSample(0))
	sk.Strict().AddBatch(clusterSample(0), []BatchRow{})
	fresh := &Recorder{}
	fresh.AddBatch(clusterSample(0), nil)
	if fresh.names != nil || fresh.chunks != nil || fresh.Len() != 0 {
		t.Fatalf("an empty AddBatch recorded into a fresh recorder: %s", layout(fresh))
	}
}

// BenchmarkRecorderAddBatch measures exact-mode ingest of cluster-shaped
// batches of 32 requests through AddBatch, the batch-granular twin of
// BenchmarkRecorderAddBatches.
func BenchmarkRecorderAddBatch(b *testing.B) {
	shared := clusterSample(0)
	rows := make([]BatchRow, 32)
	for i := range rows {
		s := clusterSample(i)
		rows[i] = BatchRow{Latency: s.Latency, Queue: s.Breakdown.Queue}
	}
	r := &Recorder{}
	b.ReportAllocs()
	for i := 0; i < b.N; i += len(rows) {
		shared.Completed = float64(i)
		r.AddBatch(shared, rows)
	}
}
