// Package queue implements PROTEAN's request batching and reordering
// (§4.1): incoming requests are grouped into per-model batches
// (strict and best-effort requests batch separately). Strict-first
// ordering of sealed batches happens in each GPU's pending queues
// (gpu.GPU.ReorderPending).
package queue

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"protean/internal/model"
	"protean/internal/obs"
	"protean/internal/pool"
	"protean/internal/sim"
	"protean/internal/trace"
)

// Batch is a group of same-model, same-strictness requests served by one
// container invocation.
type Batch struct {
	// ID is the batch's trace-correlation id, unique per Batcher and
	// starting at 1 (0 means "untracked", e.g. hand-built test batches).
	ID uint64
	// Model is the inference model the batch invokes.
	Model *model.Model
	// Strict marks batches of strict-SLO requests.
	Strict bool
	// Requests are the member requests in arrival order.
	Requests []trace.Request
	// Sealed is the virtual time the batch stopped accepting requests.
	Sealed float64
}

// Size returns the number of requests in the batch.
func (b *Batch) Size() int { return len(b.Requests) }

// FirstArrival returns the arrival time of the oldest member request.
func (b *Batch) FirstArrival() float64 {
	if len(b.Requests) == 0 {
		return b.Sealed
	}
	return b.Requests[0].Arrival
}

// String implements fmt.Stringer.
func (b *Batch) String() string {
	kind := "be"
	if b.Strict {
		kind = "strict"
	}
	return fmt.Sprintf("batch(%s, %s, %d reqs)", b.Model.Name(), kind, b.Size())
}

// Batcher accumulates requests into batches of the model's batch size,
// sealing a partial batch when the batching window expires so requests
// never wait unboundedly.
//
// Sealed batches, partial-batch shells, and request buffers are
// recycled through deterministic freelists: callers hand finished
// batches back via Release, and steady-state batching allocates
// nothing per batch. All Batcher methods — including Release — must run
// in events of the batcher's lane or of the root.
type Batcher struct {
	sim    *sim.Sim
	window float64
	emit   func(*Batch)

	// pending holds the unsealed batches, at most one per (model name,
	// strictness). It stays short — a gateway sees a handful of models —
	// so Add finds a request's batch with a linear scan.
	pending []*partialBatch
	nextID  uint64

	batchFree pool.Free[Batch]
	pbFree    pool.Free[partialBatch]
	// reqFree recycles request-buffer capacity from released batches
	// into new partial batches.
	reqFree [][]trace.Request
}

// partialBatch is an unsealed batch. Its seal timer outlives the batch:
// the shell keeps it through pbFree, and the next batch to use the shell
// re-arms it in place.
type partialBatch struct {
	id       uint64
	model    *model.Model
	strict   bool
	requests []trace.Request
	timer    *sim.Timer
}

// DefaultWindow is the default batching window in seconds.
const DefaultWindow = 0.050

// NewBatcher returns a Batcher sealing batches after at most window
// seconds and delivering them to emit.
func NewBatcher(s *sim.Sim, window float64, emit func(*Batch)) (*Batcher, error) {
	if s == nil {
		return nil, errors.New("queue: nil sim")
	}
	if window <= 0 {
		return nil, fmt.Errorf("queue: window %v must be positive", window)
	}
	if emit == nil {
		return nil, errors.New("queue: nil emit func")
	}
	b := &Batcher{
		sim:    s,
		window: window,
		emit:   emit,
	}
	b.batchFree.Reset = func(x *Batch) { *x = Batch{} }
	b.pbFree.Reset = func(x *partialBatch) { *x = partialBatch{timer: x.timer} }
	return b, nil
}

// Release returns a finished batch to the freelist. The caller must be
// completely done with the batch AND its Requests slice: both may be
// handed to an unrelated batch on the next seal. Call only from events
// of the batcher's lane or of the root.
func (b *Batcher) Release(batch *Batch) {
	if batch == nil {
		return
	}
	if cap(batch.Requests) > 0 {
		b.reqFree = append(b.reqFree, batch.Requests[:0])
		batch.Requests = nil
	}
	b.batchFree.Put(batch)
}

// PoolStats aggregates the batcher's freelist counters (batch and
// partial-batch shells).
func (b *Batcher) PoolStats() pool.Stats {
	st := b.batchFree.Stats()
	st.Add(b.pbFree.Stats())
	return st
}

// Add folds one request into its batch, sealing the batch when full.
func (b *Batcher) Add(req trace.Request) error {
	if req.Model == nil {
		return errors.New("queue: request without model")
	}
	pb := b.find(req.Model, req.Strict)
	if pb == nil {
		b.nextID++
		pb = b.pbFree.Get()
		pb.id = b.nextID
		pb.model = req.Model
		pb.strict = req.Strict
		if n := len(b.reqFree); n > 0 && pb.requests == nil {
			pb.requests = b.reqFree[n-1]
			b.reqFree[n-1] = nil
			b.reqFree = b.reqFree[:n-1]
		}
		b.pending = append(b.pending, pb)
		if pb.timer == nil {
			// The one closure per shell seals the shell's current batch.
			pb.timer = b.sim.MustAfter(b.window, func() { b.seal(pb) })
		} else if err := pb.timer.Reschedule(b.sim.Now() + b.window); err != nil {
			panic(err) // as MustAfter would: now+window is finite and not in the past
		}
	}
	pb.requests = append(pb.requests, req)
	if tr := b.sim.Tracer(); tr.Enabled() {
		ev := obs.At(b.sim.Now(), obs.KindArrival)
		ev.Batch = pb.id
		ev.Model = req.Model.Name()
		ev.Strict = req.Strict
		ev.Requests = 1
		tr.Emit(ev)
	}
	if len(pb.requests) >= req.Model.BatchSize() {
		b.seal(pb)
	}
	return nil
}

// find returns the unsealed batch for model m and class strict, or nil.
// Batches are keyed by model name, not pointer: a model built with
// model.New may share a zoo model's name.
func (b *Batcher) find(m *model.Model, strict bool) *partialBatch {
	for _, pb := range b.pending {
		if pb.strict == strict && (pb.model == m || pb.model.Name() == m.Name()) {
			return pb
		}
	}
	return nil
}

// Pending returns the number of requests waiting in unsealed batches.
func (b *Batcher) Pending() int {
	n := 0
	for _, pb := range b.pending {
		n += len(pb.requests)
	}
	return n
}

// Flush seals every partial batch immediately (end of trace). Batches
// are sealed in (model name, strict first) order so the emitted
// sequence — and every queueing decision downstream of it — is
// reproducible.
func (b *Batcher) Flush() {
	order := slices.Clone(b.pending)
	sort.Slice(order, func(i, j int) bool {
		if order[i].model.Name() != order[j].model.Name() {
			return order[i].model.Name() < order[j].model.Name()
		}
		return order[i].strict && !order[j].strict
	})
	for _, pb := range order {
		b.seal(pb)
	}
}

// seal emits pb's requests as a batch and takes pb off the pending list.
func (b *Batcher) seal(pb *partialBatch) {
	if len(pb.requests) == 0 {
		return
	}
	i := slices.Index(b.pending, pb)
	b.pending = slices.Delete(b.pending, i, i+1)
	pb.timer.Cancel()
	batch := b.batchFree.Get()
	batch.ID = pb.id
	batch.Model = pb.model
	batch.Strict = pb.strict
	batch.Requests = pb.requests
	batch.Sealed = b.sim.Now()
	// The request buffer moved into the batch; recycle the shell.
	pb.requests = nil
	b.pbFree.Put(pb)
	if tr := b.sim.Tracer(); tr.Enabled() {
		ev := obs.At(batch.Sealed, obs.KindBatchSeal)
		ev.Batch = batch.ID
		ev.Model = batch.Model.Name()
		ev.Strict = batch.Strict
		ev.Requests = batch.Size()
		// Carry the oldest member's arrival so span assembly works on
		// traces whose per-request arrival events were filtered out.
		ev.Value = batch.FirstArrival()
		tr.Emit(ev)
	}
	b.emit(batch)
}
