// Package queue implements PROTEAN's request batching and reordering
// (§4.1): incoming requests are grouped into per-model batches
// (strict and best-effort requests batch separately). A Batcher batches
// live requests on the simulation's clock; a Planner runs one ahead of
// a batch run, and the run replays its Plan. Strict-first ordering of
// sealed batches happens in each GPU's pending queues
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
// container invocation. It keeps of each member only what serving and
// accounting read: the arrival time and, for live traffic, the tenant.
type Batch struct {
	// ID is the batch's trace-correlation id, unique per Batcher and
	// starting at 1 (0 means "untracked", e.g. hand-built test batches).
	ID uint64
	// Model is the inference model the batch invokes.
	Model *model.Model
	// Strict marks batches of strict-SLO requests.
	Strict bool
	// Arrivals are the members' virtual arrival times, in arrival
	// order: one entry per member request.
	Arrivals []float64
	// Tenants are the members' tenant ids, index-aligned with
	// Arrivals. It is nil unless some member has a tenant; members
	// that arrived before the first tenant read "".
	Tenants []string
	// Sealed is the virtual time the batch stopped accepting requests.
	Sealed float64

	// shared marks a batch whose member buffers belong to a Plan:
	// Release recycles its shell but not its buffers.
	shared bool
}

// Size returns the number of requests in the batch.
func (b *Batch) Size() int { return len(b.Arrivals) }

// Tenant returns member i's tenant id ("" when it has none).
func (b *Batch) Tenant(i int) string {
	if b.Tenants == nil {
		return ""
	}
	return b.Tenants[i]
}

// FirstArrival returns the arrival time of the oldest member request.
func (b *Batch) FirstArrival() float64 {
	if len(b.Arrivals) == 0 {
		return b.Sealed
	}
	return b.Arrivals[0]
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
// Sealed batches, partial-batch shells, and member buffers are
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
	// arrFree and tenFree recycle member-buffer capacity from
	// released batches into new partial batches.
	arrFree [][]float64
	tenFree [][]string
}

// partialBatch is an unsealed batch. Its seal timer outlives the batch:
// the shell keeps it through pbFree, and the next batch to use the shell
// re-arms it in place.
type partialBatch struct {
	id       uint64
	model    *model.Model
	strict   bool
	arrivals []float64
	tenants  []string
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
// completely done with the batch AND its Arrivals and Tenants slices:
// all three may be handed to an unrelated batch on the next seal. Call
// only from events of the batcher's lane or of the root.
func (b *Batcher) Release(batch *Batch) {
	if batch == nil {
		return
	}
	if batch.shared {
		batch.Arrivals, batch.Tenants = nil, nil
	}
	if cap(batch.Arrivals) > 0 {
		b.arrFree = append(b.arrFree, batch.Arrivals[:0])
		batch.Arrivals = nil
	}
	if cap(batch.Tenants) > 0 {
		clear(batch.Tenants) // drop the tenant strings, keep the capacity
		b.tenFree = append(b.tenFree, batch.Tenants[:0])
		batch.Tenants = nil
	}
	b.batchFree.Put(batch)
}

// Replay hands out a shell from the freelist holding a planned batch
// (see Planner): the same ID, model, class, members and seal time,
// sharing the planned batch's member buffers. Release takes the shell
// back like any other; it leaves a Plan's buffers to the plan and keeps
// a once-replayed batch's for its planner to reuse. Call only from
// events of the batcher's lane or of the root.
func (b *Batcher) Replay(planned *Batch) *Batch {
	batch := b.batchFree.Get()
	*batch = *planned
	return batch
}

// reuse pops a recycled buffer off free, or returns nil when there is
// none.
func reuse[T any](free *[][]T) []T {
	n := len(*free)
	if n == 0 {
		return nil
	}
	buf := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return buf
}

// PoolStats aggregates the batcher's freelist counters (batch and
// partial-batch shells).
func (b *Batcher) PoolStats() pool.Stats {
	st := b.batchFree.Stats()
	st.Add(b.pbFree.Stats())
	return st
}

// Add folds one request into its batch, sealing the batch when full.
func (b *Batcher) Add(req trace.Request) error { return b.add(&req) }

// add is Add reading the request in place; it keeps no reference to it.
func (b *Batcher) add(req *trace.Request) error {
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
		pb.arrivals = reuse(&b.arrFree)
		b.pending = append(b.pending, pb)
		if pb.timer == nil {
			// The one closure per shell seals the shell's current batch.
			pb.timer = b.sim.MustAfter(b.window, func() { b.seal(pb) })
		} else if err := pb.timer.Reschedule(b.sim.Now() + b.window); err != nil {
			panic(err) // as MustAfter would: now+window is finite and not in the past
		}
	}
	pb.arrivals = append(pb.arrivals, req.Arrival)
	if req.Tenant != "" || len(pb.tenants) > 0 {
		if len(pb.tenants) == 0 {
			// The first tenant of the batch: the members before it
			// had none.
			pb.tenants = reuse(&b.tenFree)
			for range len(pb.arrivals) - 1 {
				pb.tenants = append(pb.tenants, "")
			}
		}
		pb.tenants = append(pb.tenants, req.Tenant)
	}
	if len(pb.arrivals) >= req.Model.BatchSize() {
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
		n += len(pb.arrivals)
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
	if len(pb.arrivals) == 0 {
		return
	}
	i := slices.Index(b.pending, pb)
	b.pending = slices.Delete(b.pending, i, i+1)
	pb.timer.Cancel()
	batch := b.batchFree.Get()
	batch.ID = pb.id
	batch.Model = pb.model
	batch.Strict = pb.strict
	batch.Arrivals = pb.arrivals
	batch.Tenants = pb.tenants
	batch.Sealed = b.sim.Now()
	// The member buffers moved into the batch; recycle the shell.
	pb.arrivals, pb.tenants = nil, nil
	b.pbFree.Put(pb)
	if tr := b.sim.Tracer(); tr.Enabled() {
		tr.Emit(sealEvent(batch))
	}
	b.emit(batch)
}

// sealEvent is the trace event of batch sealing.
func sealEvent(batch *Batch) obs.Event {
	ev := obs.At(batch.Sealed, obs.KindBatchSeal)
	ev.Batch = batch.ID
	ev.Model = batch.Model.Name()
	ev.Strict = batch.Strict
	ev.Requests = batch.Size()
	// The oldest member's arrival: no event is emitted per request.
	ev.Value = batch.FirstArrival()
	return ev
}
