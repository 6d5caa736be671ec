package queue

import (
	"fmt"
	"testing"

	"protean/internal/model"
	"protean/internal/sim"
	"protean/internal/trace"
)

func req(m *model.Model, strict bool, at float64, id uint64) trace.Request {
	return trace.Request{ID: id, Model: m, Strict: strict, Arrival: at}
}

func TestBatcherSealsFullBatch(t *testing.T) {
	s := sim.New(1)
	m := model.MustByName("ALBERT") // batch size 4
	var got []*Batch
	b, err := NewBatcher(s, 1.0, func(batch *Batch) { got = append(got, batch) })
	if err != nil {
		t.Fatalf("NewBatcher: %v", err)
	}
	for i := 0; i < 4; i++ {
		if err := b.Add(req(m, true, 0, uint64(i))); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if len(got) != 1 {
		t.Fatalf("batches = %d, want 1 (sealed on fill)", len(got))
	}
	if got[0].Size() != 4 || !got[0].Strict || got[0].Model != m {
		t.Errorf("batch = %v", got[0])
	}
	if b.Pending() != 0 {
		t.Errorf("pending = %d, want 0", b.Pending())
	}
}

func TestBatcherWindowSealsPartialBatch(t *testing.T) {
	s := sim.New(1)
	m := model.MustByName("ResNet 50") // batch size 128
	var got []*Batch
	b, err := NewBatcher(s, 0.05, func(batch *Batch) { got = append(got, batch) })
	if err != nil {
		t.Fatalf("NewBatcher: %v", err)
	}
	if err := b.Add(req(m, true, 0, 1)); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("batches = %d, want 1 (window expiry)", len(got))
	}
	if got[0].Sealed != 0.05 {
		t.Errorf("sealed at %v, want 0.05", got[0].Sealed)
	}
	if got[0].Size() != 1 {
		t.Errorf("size = %d, want 1", got[0].Size())
	}
}

func TestBatcherSeparatesStrictAndBE(t *testing.T) {
	s := sim.New(1)
	m := model.MustByName("ALBERT")
	var got []*Batch
	b, _ := NewBatcher(s, 0.05, func(batch *Batch) { got = append(got, batch) })
	for i := 0; i < 4; i++ {
		if err := b.Add(req(m, i%2 == 0, float64(i), uint64(i))); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("batches = %d, want 2 (strict and BE separately)", len(got))
	}
	// Strict requests arrived at 0 and 2, best-effort ones at 1 and 3.
	for _, batch := range got {
		want := []float64{1, 3}
		if batch.Strict {
			want = []float64{0, 2}
		}
		if fmt.Sprint(batch.Arrivals) != fmt.Sprint(want) {
			t.Errorf("%v holds arrivals %v, want %v", batch, batch.Arrivals, want)
		}
	}
}

// TestBatchTenants: tenant-less traffic keeps no tenant slice, and a
// tenant that first appears mid-batch backfills the earlier members
// with "".
func TestBatchTenants(t *testing.T) {
	s := sim.New(1)
	m := model.MustByName("ALBERT") // batch size 4
	var got []*Batch
	b, _ := NewBatcher(s, 1, func(batch *Batch) { got = append(got, batch) })
	add := func(tenant string, at float64) {
		t.Helper()
		r := req(m, true, at, 0)
		r.Tenant = tenant
		if err := b.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 4 {
		add("", float64(i))
	}
	add("", 4)
	add("acme", 5)
	add("", 6)
	add("zeta", 7)
	if len(got) != 2 {
		t.Fatalf("batches = %d, want 2", len(got))
	}
	if got[0].Tenants != nil || got[0].Tenant(3) != "" {
		t.Errorf("tenant-less batch carries tenants %q", got[0].Tenants)
	}
	want := []string{"", "acme", "", "zeta"}
	if fmt.Sprintf("%q", got[1].Tenants) != fmt.Sprintf("%q", want) {
		t.Errorf("tenants = %q, want %q", got[1].Tenants, want)
	}
	if got[1].Tenant(1) != "acme" || got[1].Arrivals[1] != 5 {
		t.Errorf("member 1 = (%q, %v), want (acme, 5)", got[1].Tenant(1), got[1].Arrivals[1])
	}
}

// TestSteadyBatchingAllocatesNothing: once the freelists are warm, a
// full batch that is added, sealed and released allocates nothing, with
// tenants or without.
func TestSteadyBatchingAllocatesNothing(t *testing.T) {
	for _, tenant := range []string{"", "acme"} {
		s := sim.New(1)
		m := model.MustByName("ALBERT") // batch size 4
		var b *Batcher
		b, _ = NewBatcher(s, 1, func(batch *Batch) { b.Release(batch) })
		allocs := testing.AllocsPerRun(100, func() {
			for i := range 4 {
				r := req(m, true, float64(i), 0)
				r.Tenant = tenant
				if err := b.Add(r); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("tenant %q: a full batch allocates %v times, want 0", tenant, allocs)
		}
	}
}

func TestBatcherSeparatesModels(t *testing.T) {
	s := sim.New(1)
	a, b2 := model.MustByName("ALBERT"), model.MustByName("BERT")
	var got []*Batch
	b, _ := NewBatcher(s, 0.05, func(batch *Batch) { got = append(got, batch) })
	for i := 0; i < 4; i++ {
		m := a
		if i%2 == 1 {
			m = b2
		}
		if err := b.Add(req(m, true, 0, uint64(i))); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("batches = %d, want 2 (per model)", len(got))
	}
}

func TestBatcherFlush(t *testing.T) {
	s := sim.New(1)
	m := model.MustByName("ResNet 50")
	var got []*Batch
	b, _ := NewBatcher(s, 100, func(batch *Batch) { got = append(got, batch) })
	if err := b.Add(req(m, false, 0, 1)); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if b.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", b.Pending())
	}
	b.Flush()
	if len(got) != 1 || b.Pending() != 0 {
		t.Errorf("after flush: batches=%d pending=%d", len(got), b.Pending())
	}
	// The window timer must not double-emit later.
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 1 {
		t.Errorf("window timer re-emitted: %d batches", len(got))
	}
}

func TestBatcherValidation(t *testing.T) {
	s := sim.New(1)
	if _, err := NewBatcher(nil, 1, func(*Batch) {}); err == nil {
		t.Error("nil sim accepted")
	}
	if _, err := NewBatcher(s, 0, func(*Batch) {}); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewBatcher(s, 1, nil); err == nil {
		t.Error("nil emit accepted")
	}
	b, _ := NewBatcher(s, 1, func(*Batch) {})
	if err := b.Add(trace.Request{}); err == nil {
		t.Error("request without model accepted")
	}
}

func TestBatchFirstArrival(t *testing.T) {
	m := model.MustByName("ResNet 50")
	b := &Batch{Model: m, Arrivals: []float64{1.5, 2.0}, Sealed: 2.5}
	if got := b.FirstArrival(); got != 1.5 {
		t.Errorf("FirstArrival = %v, want 1.5", got)
	}
	empty := &Batch{Model: m, Sealed: 3}
	if got := empty.FirstArrival(); got != 3 {
		t.Errorf("empty FirstArrival = %v, want sealed time", got)
	}
}

// TestSealTimerFollowsReusedShell: a partial-batch shell keeps its seal
// timer through the freelist, so the timer must seal whichever batch
// the shell holds now, not the one it was created for.
func TestSealTimerFollowsReusedShell(t *testing.T) {
	s := sim.New(1)
	albert, bert := model.MustByName("ALBERT"), model.MustByName("BERT")
	var got []string
	var b *Batcher
	b, _ = NewBatcher(s, 0.05, func(batch *Batch) {
		got = append(got, fmt.Sprintf("%s@%g", batch, batch.Sealed))
		b.Release(batch)
	})
	if err := b.Add(req(albert, true, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(req(bert, false, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if st := b.PoolStats(); st.Hits == 0 {
		t.Fatalf("pool stats %+v: the second batch did not reuse a shell", st)
	}
	want := "[batch(ALBERT, strict, 1 reqs)@0.05 batch(BERT, be, 1 reqs)@1.05]"
	if fmt.Sprint(got) != want {
		t.Fatalf("sealed %v, want %s", got, want)
	}
}

// TestSealTimerRearmAllocatesNothing: once the freelists are warm, a
// batch that opens, waits out its window and is released allocates
// nothing — the reused shell re-arms its own seal timer.
func TestSealTimerRearmAllocatesNothing(t *testing.T) {
	s := sim.New(1)
	m := model.MustByName("ResNet 50")
	var b *Batcher
	b, _ = NewBatcher(s, 0.05, func(batch *Batch) { b.Release(batch) })
	allocs := testing.AllocsPerRun(100, func() {
		if err := b.Add(req(m, true, s.Now(), 1)); err != nil {
			t.Fatal(err)
		}
		if err := s.RunUntil(s.Now() + 0.1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a windowed batch allocates %v times, want 0", allocs)
	}
}

// TestBatcherKeysBatchesByModelName: a model built with model.New may
// share a zoo model's name, so one model name can reach the batcher
// through two pointers; their requests must share one batch. Flush must
// still seal in (model name, strict first) order whatever order the
// batches opened in.
func TestBatcherKeysBatchesByModelName(t *testing.T) {
	s := sim.New(1)
	resnet := model.MustByName("ResNet 50")
	twin, err := model.New(resnet.Name(), resnet.Domain(), resnet.Class(), resnet.BatchSize(),
		resnet.Solo7g(), resnet.FBR(), resnet.ComputeDemand(), 5.0, 0.25, 0.95, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	albert := model.MustByName("ALBERT")
	var got []string
	b, _ := NewBatcher(s, 100, func(batch *Batch) { got = append(got, batch.String()) })
	for i, r := range []trace.Request{
		req(resnet, false, 0, 1),
		req(albert, false, 0, 2),
		req(twin, true, 0, 3),
		req(albert, true, 0, 4),
		req(resnet, true, 0, 5),
		req(twin, false, 0, 6),
	} {
		if err := b.Add(r); err != nil {
			t.Fatalf("Add %d: %v", i, err)
		}
	}
	if b.Pending() != 6 {
		t.Fatalf("pending = %d, want 6", b.Pending())
	}
	b.Flush()
	want := "[batch(ALBERT, strict, 1 reqs) batch(ALBERT, be, 1 reqs) batch(ResNet 50, strict, 2 reqs) batch(ResNet 50, be, 2 reqs)]"
	if fmt.Sprint(got) != want {
		t.Fatalf("flushed %v, want %s", got, want)
	}
	if b.Pending() != 0 {
		t.Fatalf("pending after flush = %d, want 0", b.Pending())
	}
}
