package queue

import (
	"errors"
	"fmt"
	"math"

	"protean/internal/obs"
	"protean/internal/pool"
	"protean/internal/sim"
	"protean/internal/trace"
)

// The gateway's batches depend only on the arrival sequence and the
// window: nothing downstream of a seal feeds back into the batcher. A
// Planner therefore runs the Batcher ahead of the simulation, on a
// private clock, and records what it sealed and when; a cluster then
// replays the sealed batches at their seal instants instead of pumping
// every request through its own event loop. A Plan is a Planner's whole
// output kept for replay by many runs.

// StepKind classifies a plan step.
type StepKind uint8

const (
	// StepSeal is a batch sealed full or at its window deadline.
	StepSeal StepKind = iota
	// StepFlush is a batch Flush sealed at the horizon. Flushed steps
	// come last, in Flush order.
	StepFlush
)

// Step is one sealed batch of a plan, in the order the gateway sealed
// it; Batch.Sealed is its instant.
type Step struct {
	Kind  StepKind
	Batch Batch
}

// Event returns the trace event the gateway emitted for the step: the
// same event, at the same time, that a Batcher on the simulation's own
// clock emits.
func (s *Step) Event() obs.Event { return sealEvent(&s.Batch) }

// Tally counts what a planned gateway did besides sealing batches.
type Tally struct {
	// Offered counts the arrivals before the horizon, Dropped those
	// the batcher refused (requests without a model).
	Offered, Dropped int
	// Events counts the gateway events a simulation running the
	// Batcher on its own clock executes: one per offered arrival and
	// one per window seal.
	Events uint64
	// Shells is the partial-batch shell freelist's traffic; the sealed
	// Batch shells are the replaying batcher's (Batcher.Replay).
	Shells pool.Stats
}

// Plan is the gateway's complete output for one arrival sequence: every
// sealed batch in seal order, followed by the batches Flush sealed at
// the horizon. A Plan is read-only once built, so any number of runs,
// concurrent ones too, may replay it; their batches share its member
// buffers, which never return to a freelist.
type Plan struct {
	// Horizon is the end of the arrival sequence: arrivals at or after
	// it were not offered.
	Horizon float64
	// Steps are the gateway's seals in order.
	Steps []Step
	Tally
}

// Replay returns a Planner that yields the plan's steps from the start
// without writing to the plan.
func (p *Plan) Replay() *Planner {
	return &Planner{steps: p.Steps, ended: true, tally: p.Tally}
}

// Planner runs a Batcher, unchanged, with the DefaultWindow on a
// private clock over a sorted arrival source and yields the gateway's
// steps in order. Before it
// adds an arrival at time a it runs its clock to a, so a window seal
// due at a comes first: the tie order of a simulation where the seal
// timer, armed earlier, holds the older sequence number.
type Planner struct {
	clock   *sim.Sim
	batcher *Batcher
	next    func() *trace.Request
	horizon float64
	// cur is the next arrival.
	cur *trace.Request

	// steps[head:] are produced and not yet taken. A replaying planner
	// only reads steps; a producing one reuses the buffer once drained.
	steps []Step
	head  int
	ended bool
	tally Tally

	// recycle, when set, is the batcher that replays each batch once and
	// releases it: sealed batches keep their member buffers, and the
	// planner takes them back from recycle's freelist. Otherwise (a
	// Plan) arena holds the sealed batches' member times, copied out of
	// the batcher's recycled buffers.
	recycle *Batcher
	arena   []float64
}

// arenaChunk is the member-time arena's allocation unit (32 KiB).
const arenaChunk = 4096

// NewPlanner returns a Planner over next, which returns the arrivals in
// ascending time order and nil after the last; the request it returns
// must stay unchanged until the following call. Arrivals at or after
// horizon end the sequence. The first arrival is read here and must be
// a time on the clock (finite and not negative).
//
// A run replays the planner's batches once, through r: each takes a
// shell from r (Batcher.Replay) and keeps the batch's member buffers,
// and once r releases it the planner reuses them, so a long run
// allocates no member buffer per batch.
func NewPlanner(horizon float64, next func() *trace.Request, r *Batcher) (*Planner, error) {
	if r == nil {
		return nil, errors.New("queue: nil replaying batcher")
	}
	p, err := newPlanner(horizon, next)
	if err != nil {
		return nil, err
	}
	p.recycle = r
	return p, nil
}

func newPlanner(horizon float64, next func() *trace.Request) (*Planner, error) {
	if !(horizon > 0) || math.IsInf(horizon, 1) {
		return nil, fmt.Errorf("queue: horizon %v must be positive and finite", horizon)
	}
	if next == nil {
		return nil, errors.New("queue: nil arrival source")
	}
	p := &Planner{clock: sim.New(0), next: next, horizon: horizon}
	b, err := NewBatcher(p.clock, DefaultWindow, p.keep)
	if err != nil {
		return nil, err
	}
	p.batcher = b
	if p.cur = next(); p.cur != nil {
		if a := p.cur.Arrival; !(a >= 0) {
			return nil, fmt.Errorf("queue: arrival at %v is not a time on the clock", a)
		}
	}
	return p, nil
}

// Build runs a Planner over next to the end and returns its plan, with
// the arguments NewPlanner takes but a replaying batcher: a plan's
// member buffers are its own.
func Build(horizon float64, next func() *trace.Request) (*Plan, error) {
	p, err := newPlanner(horizon, next)
	if err != nil {
		return nil, err
	}
	for !p.ended {
		p.step()
	}
	return &Plan{Horizon: horizon, Steps: p.steps, Tally: p.tally}, nil
}

// Next returns the next step, or nil after the last. Flush steps come
// after every other step. The step is read-only and stays valid until
// the following call.
func (p *Planner) Next() *Step {
	for p.head == len(p.steps) {
		if p.ended {
			return nil
		}
		p.steps, p.head = p.steps[:0], 0
		p.step()
	}
	p.head++
	return &p.steps[p.head-1]
}

// Tally returns the gateway's counts. They are final once Next has
// returned nil or a flush step.
func (p *Planner) Tally() Tally { return p.tally }

// step offers the next arrival to the batcher or, at the end of the
// source, runs the clock to the horizon and flushes.
func (p *Planner) step() {
	req := p.cur
	if req == nil || req.Arrival >= p.horizon {
		p.finish()
		return
	}
	at := req.Arrival
	p.run(at)
	p.tally.Offered++
	if err := p.batcher.add(req); err != nil {
		p.tally.Dropped++
	}
	p.cur = p.next()
	if p.cur != nil && !(p.cur.Arrival >= at) {
		panic(fmt.Sprintf("queue: arrival at %v after one at %v", p.cur.Arrival, at))
	}
}

// run fires the window seals due at or before t.
func (p *Planner) run(t float64) {
	if err := p.clock.RunUntil(t); err != nil {
		panic(err) // unreachable: the clock is a root
	}
}

// finish seals what the horizon leaves: the window seals due by then,
// then Flush's batches, marked as flushed.
func (p *Planner) finish() {
	p.run(p.horizon)
	first := len(p.steps)
	p.batcher.Flush()
	for i := first; i < len(p.steps); i++ {
		p.steps[i].Kind = StepFlush
	}
	p.tally.Events = uint64(p.tally.Offered) + p.clock.Executed()
	p.tally.Shells = p.batcher.pbFree.Stats()
	p.ended = true
	p.cur = nil
}

// keep is the private batcher's emit hook: it records the sealed batch
// as a step and recycles the batch's shell into the batcher. A plan's
// step gets the member times copied into the arena, and the arrival
// buffer goes back to the batcher; a replayed-once step keeps both
// buffers, and the batcher gets back one that the replaying batcher
// released.
func (p *Planner) keep(b *Batch) {
	st := Step{Kind: StepSeal, Batch: *b}
	b.Tenants = nil // the step owns them now
	if r := p.recycle; r != nil {
		b.Arrivals = nil
		if buf := reuse(&r.arrFree); buf != nil {
			p.batcher.arrFree = append(p.batcher.arrFree, buf)
		}
		if buf := reuse(&r.tenFree); buf != nil {
			p.batcher.tenFree = append(p.batcher.tenFree, buf)
		}
	} else {
		n := len(b.Arrivals)
		if cap(p.arena)-len(p.arena) < n {
			p.arena = make([]float64, 0, max(arenaChunk, n))
		}
		start := len(p.arena)
		p.arena = append(p.arena, b.Arrivals...)
		st.Batch.Arrivals = p.arena[start:len(p.arena):len(p.arena)]
		st.Batch.shared = true
	}
	p.steps = append(p.steps, st)
	p.batcher.Release(b)
}
