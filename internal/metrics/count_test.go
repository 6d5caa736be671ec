package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// countedBatch is one completed batch as a cluster node sees it: the
// shared sample fields, each member's arrival, the finish time and the
// warmup before which members are not recorded.
type countedBatch struct {
	shared   Sample
	arrivals []float64
	finished float64
	warmup   float64
}

// rows returns the batch's recorded members as AddBatch takes them.
func (b countedBatch) rows() []BatchRow {
	var out []BatchRow
	for _, a := range b.arrivals {
		if a < b.warmup {
			continue
		}
		out = append(out, BatchRow{Latency: b.finished - a})
	}
	return out
}

// counts returns how many members are recorded and how many of them
// meet the SLO, by the comparison AddBatch makes.
func (b countedBatch) counts() (n, met int) {
	for _, a := range b.arrivals {
		if a < b.warmup {
			continue
		}
		n++
		if b.finished-a <= b.shared.SLO {
			met++
		}
	}
	return n, met
}

// countedStream draws batches with the corner cases the counts must
// agree on: warmup cut-offs inside a batch, -0.0 and NaN latencies, NaN
// and -0.0 SLOs, weights ≤ 0 and > 1, and empty batches.
func countedStream(rng *rand.Rand, n int) []countedBatch {
	negZero := math.Copysign(0, -1)
	out := make([]countedBatch, n)
	for i := range out {
		b := countedBatch{
			shared: Sample{
				Model:  []string{"a", "b"}[rng.Intn(2)],
				Strict: rng.Intn(3) > 0,
				SLO:    []float64{0.05, 0.1, 0, negZero, math.NaN()}[rng.Intn(5)],
				Weight: []int{-1, 0, 1, 2, 5}[rng.Intn(5)],
			},
			finished: 1 + rng.Float64(),
			warmup:   []float64{0, 0.5, 1, 2}[rng.Intn(4)],
		}
		if rng.Intn(8) == 0 {
			// -0.0 - +0.0 is -0.0: a member whose latency is -0.0.
			b.finished = negZero
		}
		for range []int{0, 1, 4, 16, 40}[rng.Intn(5)] {
			a := b.finished - rng.ExpFloat64()*0.1
			switch rng.Intn(10) {
			case 0:
				a = math.NaN()
			case 1:
				a = b.finished
			case 2:
				a = 0
			}
			b.arrivals = append(b.arrivals, a)
		}
		out[i] = b
	}
	return out
}

// sameCounts asserts got answers every count query exactly as want.
func sameCounts(t *testing.T, what string, got, want *Recorder) {
	t.Helper()
	if got.Len() != want.Len() || got.Requests() != want.Requests() {
		t.Fatalf("%s: %d requests in %d samples, want %d in %d", what, got.Requests(), got.Len(), want.Requests(), want.Len())
	}
	if g, w := got.SLOCompliance(), want.SLOCompliance(); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("%s: SLO compliance %v, want %v", what, g, w)
	}
	if g, w := Goodput(got, 7), Goodput(want, 7); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("%s: goodput %v, want %v", what, g, w)
	}
	if g, w := got.Throughput(7, 3, 0), want.Throughput(7, 3, 0); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("%s: throughput %v, want %v", what, g, w)
	}
}

// TestCountRecorderMatchesRows is a property test: over seeded streams
// of cluster-shaped batches, a count recorder fed by AddBatch and one
// fed by AddCounts each answer Len, Requests, SLOCompliance, Goodput and
// horizon-free throughput exactly as the exact recorder they shadow, on
// the whole recorder, on its class views and merged.
func TestCountRecorderMatchesRows(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var rowsParts, batchParts, countParts []*Recorder
		for part := 0; part < 3; part++ {
			rows, batched, counted := &Recorder{}, NewRecorder(Counts), NewRecorder(Counts)
			for i, b := range countedStream(rng, 60) {
				rows.AddBatch(b.shared, b.rows())
				batched.AddBatch(b.shared, b.rows())
				n, met := b.counts()
				counted.AddCounts(b.shared, n, met)
				if i%10 == 9 {
					what := fmt.Sprintf("seed %d part %d after batch %d", seed, part, i)
					sameCounts(t, what+" by AddBatch", batched, rows)
					sameCounts(t, what+" by AddCounts", counted, rows)
				}
			}
			for _, v := range []struct {
				name string
				view func(*Recorder) *Recorder
			}{
				{"strict", (*Recorder).Strict},
				{"best effort", (*Recorder).BestEffort},
				{"strict of best effort", func(r *Recorder) *Recorder { return r.BestEffort().Strict() }},
			} {
				what := fmt.Sprintf("seed %d part %d %s view", seed, part, v.name)
				sameCounts(t, what+" by AddBatch", v.view(batched), v.view(rows))
				sameCounts(t, what+" by AddCounts", v.view(counted), v.view(rows))
			}
			rowsParts, batchParts, countParts = append(rowsParts, rows), append(batchParts, batched), append(countParts, counted)
		}
		rows, batched, counted := &Recorder{}, NewRecorder(Counts), NewRecorder(Counts)
		rows.Merge(rowsParts...)
		batched.Merge(batchParts...)
		counted.Merge(append(countParts, nil)...)
		what := fmt.Sprintf("seed %d merged", seed)
		sameCounts(t, what+" by AddBatch", batched, rows)
		sameCounts(t, what+" by AddCounts", counted, rows)
		sameCounts(t, what+" strict view", counted.Strict(), rows.Strict())
		if rows.Strict().Len() == 0 || rows.BestEffort().Len() == 0 || math.IsNaN(rows.SLOCompliance()) {
			t.Fatalf("seed %d: a degenerate stream (%d strict, %d best-effort samples)", seed, rows.Strict().Len(), rows.BestEffort().Len())
		}
	}
}

// TestCountRecorderRejectsRowQueries asserts a count recorder and its
// class views panic on every query that needs rows or latencies, and
// that writes and merges across levels panic too.
func TestCountRecorderRejectsRowQueries(t *testing.T) {
	counts := NewRecorder(Counts)
	counts.Add(Sample{Model: "m", Strict: true, Latency: 0.1, SLO: 0.2, Weight: 1, Completed: 1})
	counts.AddCounts(Sample{Model: "m", Weight: 2, Completed: 2}, 3, 0)
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	// An empty count recorder panics too, rather than answering NaN.
	for _, r := range []*Recorder{counts, counts.Strict(), counts.BestEffort(), NewRecorder(Counts)} {
		for _, q := range []struct {
			name  string
			query func()
		}{
			{"Percentile", func() { r.Percentile(99) }},
			{"Mean", func() { r.Mean() }},
			{"Latencies", func() { r.Latencies() }},
			{"ForModel", func() { r.ForModel("m") }},
			{"Filter", func() { r.Filter(func(Sample) bool { return true }) }},
			{"BreakdownAtPercentile", func() { r.BreakdownAtPercentile(99) }},
			{"Summarize", func() { r.Summarize() }},
			{"Snapshot", func() { r.Snapshot() }},
			{"Throughput with a horizon", func() { r.Throughput(10, 1, 5) }},
			{"TotalThroughput with a horizon", func() { r.TotalThroughput(10, 1, 5) }},
		} {
			mustPanic(q.name+" on a count recorder", q.query)
		}
	}
	exact, sketch := &Recorder{}, NewSketchRecorder()
	s := Sample{Model: "m", Strict: true, Latency: 0.1, SLO: 0.2, Weight: 1}
	for _, w := range []struct {
		name  string
		write func()
	}{
		{"Merge a count recorder into an exact one", func() { exact.Merge(counts) }},
		{"Merge an exact recorder into a count one", func() { counts.Merge(&Recorder{}) }},
		{"Merge a count recorder into a sketch one", func() { sketch.Merge(counts) }},
		{"Merge a sketch recorder into a count one", func() { counts.Merge(NewSketchRecorder()) }},
		{"Merge a count view", func() { NewRecorder(Counts).Merge(counts.Strict()) }},
		{"Add to a count view", func() { counts.Strict().Add(s) }},
		{"AddCounts to a count view", func() { counts.BestEffort().AddCounts(s, 1, 1) }},
		{"AddCounts to an exact recorder", func() { exact.AddCounts(s, 1, 1) }},
		{"AddCounts to a sketch recorder", func() { sketch.AddCounts(s, 1, 1) }},
		{"an invalid level", func() { NewRecorder(Sketches + 1) }},
	} {
		mustPanic(w.name, w.write)
	}
	if counts.Len() != 4 || counts.Requests() != 7 || counts.Strict().Len() != 1 || counts.BestEffort().Requests() != 6 {
		t.Fatalf("counts: %d requests in %d samples, strict %d samples, best effort %d requests",
			counts.Requests(), counts.Len(), counts.Strict().Len(), counts.BestEffort().Requests())
	}
	if exact.Len() != 0 || sketch.Len() != 0 {
		t.Fatalf("a rejected write recorded: exact %d, sketch %d samples", exact.Len(), sketch.Len())
	}
	if got := counts.TotalThroughput(7, 1, 0); got != 1 {
		t.Fatalf("horizon-free total throughput %v, want 7 requests / 7 s", got)
	}
}
