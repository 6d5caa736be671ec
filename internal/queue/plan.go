package queue

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"

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

// Planner yields a gateway's steps in order: a Plan's (Plan.Replay), or
// those a producer seals over an arrival source as the run takes them
// (NewPlanner). A pulled planner takes the producer's steps in blocks.
// With a second P the producer runs on a goroutine of its own and plans
// up to a ring of blocks ahead of the run; with one, Next fills each
// block on the caller's goroutine. The steps, and their order, are the
// same either way.
type Planner struct {
	// steps[head:] are the current block's steps not yet taken; ended
	// marks the last block (a Plan is one block).
	steps []Step
	head  int
	ended bool
	tally Tally

	// A pulled planner's replaying batcher and current block, and its
	// producer: inline, which Next drives, or the ring to the producer
	// goroutine.
	r      *Batcher
	blk    *block
	inline *producer
	ahead  *ring
}

// Block caps: a pulled planner's block is full once it holds
// blockSteps steps or blockArrivals arrivals were offered into it,
// whichever comes first. The arrival cap keeps the first block, which
// the run waits for, small when batches are large; the step cap makes
// a block of small batches hand over rarely. ringBlocks blocks cycle
// between a producer goroutine and its planner.
const (
	blockSteps    = 1024
	blockArrivals = 4096
	ringBlocks    = 4
)

// block is one handoff of a pulled planner's steps, with the gateway's
// counts as of its last step. On its way back to the producer it
// carries the member buffers the replaying batcher released meanwhile.
type block struct {
	steps []Step
	tally Tally
	last  bool
	// panicked is what the producer panicked with while filling the
	// block, and stack where; the planner panics with it.
	panicked any
	stack    []byte

	arrFree [][]float64
	tenFree [][]string
}

// ring moves a fixed set of blocks between a producer goroutine and its
// planner: empty ones on free, filled ones on full. Each channel holds
// every block, so no send waits.
type ring struct {
	free, full chan *block
	// stop ends the producer; done is closed once it has returned.
	stop, done chan struct{}
}

// producer runs a Batcher, unchanged, with the DefaultWindow on a
// private clock over a sorted arrival source and records the gateway's
// steps in order. Before it adds an arrival at time a it runs its clock
// to a, so a window seal due at a comes first: the tie order of a
// simulation where the seal timer, armed earlier, holds the older
// sequence number.
type producer struct {
	clock   *sim.Sim
	batcher *Batcher
	next    func() *trace.Request
	horizon float64
	// cur is the next arrival.
	cur *trace.Request

	steps []Step
	ended bool
	tally Tally

	// planned marks a Plan's producer: arena holds its sealed batches'
	// member times, copied out of the batcher's recycled buffers. A
	// pulled producer's steps keep their member buffers, and the blocks
	// bring them back once released.
	planned bool
	arena   []float64
}

// arenaChunk is the member-time arena's allocation unit (32 KiB).
const arenaChunk = 4096

// NewPlanner returns a Planner over next, which returns the arrivals in
// ascending time order and nil after the last; the request it returns
// must stay unchanged until the following call. Arrivals at or after
// horizon end the sequence. The first arrival is read here and must be
// a time on the clock (finite and not negative). After that, with more
// than one P (runtime.GOMAXPROCS), only the planner's producer
// goroutine calls next, until the last step is taken or Stop returns;
// call Stop before anything else may read what next reads. A panic on
// the producer, next's own included, is raised again from Next.
//
// A run replays the planner's batches once, through r: each takes a
// shell from r (Batcher.Replay) and keeps the batch's member buffers,
// and once r releases it the planner hands them back to its producer
// with the next drained block, so a long run allocates no member
// buffer per batch.
func NewPlanner(horizon float64, next func() *trace.Request, r *Batcher) (*Planner, error) {
	if r == nil {
		return nil, errors.New("queue: nil replaying batcher")
	}
	g, err := newProducer(horizon, next)
	if err != nil {
		return nil, err
	}
	p := &Planner{r: r}
	if runtime.GOMAXPROCS(0) == 1 {
		// No second core to plan on: fill each block when it is due.
		p.inline, p.blk = g, &block{}
		return p, nil
	}
	a := &ring{
		free: make(chan *block, ringBlocks),
		full: make(chan *block, ringBlocks),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for range ringBlocks {
		a.free <- &block{}
	}
	p.ahead = a
	go g.produce(a)
	// A planner dropped without Stop still ends its producer.
	runtime.SetFinalizer(p, func(p *Planner) { close(p.ahead.stop) })
	return p, nil
}

func newProducer(horizon float64, next func() *trace.Request) (*producer, error) {
	if !(horizon > 0) || math.IsInf(horizon, 1) {
		return nil, fmt.Errorf("queue: horizon %v must be positive and finite", horizon)
	}
	if next == nil {
		return nil, errors.New("queue: nil arrival source")
	}
	g := &producer{clock: sim.New(0), next: next, horizon: horizon}
	b, err := NewBatcher(g.clock, DefaultWindow, g.keep)
	if err != nil {
		return nil, err
	}
	g.batcher = b
	if g.cur = next(); g.cur != nil {
		if a := g.cur.Arrival; !(a >= 0) {
			return nil, fmt.Errorf("queue: arrival at %v is not a time on the clock", a)
		}
	}
	return g, nil
}

// Build runs a gateway over next to the end and returns its plan, with
// the arguments NewPlanner takes but a replaying batcher: a plan's
// member buffers are its own.
func Build(horizon float64, next func() *trace.Request) (*Plan, error) {
	g, err := newProducer(horizon, next)
	if err != nil {
		return nil, err
	}
	g.planned = true
	for !g.ended {
		g.step()
	}
	return &Plan{Horizon: horizon, Steps: g.steps, Tally: g.tally}, nil
}

// Next returns the next step, or nil after the last and after Stop.
// Flush steps come after every other step. The step is read-only and
// stays valid until the following call.
func (p *Planner) Next() *Step {
	for p.head == len(p.steps) {
		if p.ended {
			return nil
		}
		p.refill()
	}
	p.head++
	return &p.steps[p.head-1]
}

// refill hands the drained block back, with the member buffers the
// replaying batcher released since the last handoff, and takes the next
// one. A block the producer panicked on stops the planner, whichever
// drive filled it, and its panic goes on from here; the producer's
// stack goes to standard error first, since the panic raised here no
// longer shows where it began.
func (p *Planner) refill() {
	blk := p.blk
	if blk != nil {
		handOver(&blk.arrFree, &p.r.arrFree)
		handOver(&blk.tenFree, &p.r.tenFree)
	}
	if a := p.ahead; a == nil {
		p.inline.fillCatching(blk)
	} else {
		if blk != nil {
			a.free <- blk
		}
		blk = <-a.full
	}
	if v := blk.panicked; v != nil {
		p.Stop()
		_, _ = fmt.Fprintf(os.Stderr, "queue: gateway producer panicked: %v\n%s", v, blk.stack)
		panic(v)
	}
	p.blk, p.steps, p.head, p.ended, p.tally = blk, blk.steps, 0, blk.last, blk.tally
}

// Stop ends the planner: Next returns nil from now on. A pulled
// planner's producer goroutine has returned, and reads next no more,
// once Stop returns. Stop may be called more than once.
func (p *Planner) Stop() {
	p.steps, p.head, p.ended = nil, 0, true
	p.inline = nil
	if a := p.ahead; a != nil {
		p.ahead = nil
		runtime.SetFinalizer(p, nil)
		close(a.stop)
		<-a.done
	}
}

// Tally returns the gateway's counts. They are final once Next has
// returned a flush step, or nil at the end of the steps.
func (p *Planner) Tally() Tally { return p.tally }

// handOver moves the buffers on src to the end of dst.
func handOver[T any](dst, src *[][]T) {
	*dst = append(*dst, *src...)
	clear(*src)
	*src = (*src)[:0]
}

// produce fills the blocks that arrive on a.free and hands them over on
// a.full, until it has handed over the last one or a.stop is closed.
// It checks a.stop after taking a block, so once Stop closes it at most
// the fill under way runs on.
func (g *producer) produce(a *ring) {
	defer close(a.done)
	for {
		var blk *block
		select {
		case blk = <-a.free:
		case <-a.stop:
			return
		}
		select {
		case <-a.stop:
			return
		default:
		}
		g.fillCatching(blk)
		a.full <- blk
		if blk.last {
			return
		}
	}
}

// fillCatching is fill, but a panic ends the gateway: blk is then the
// last block and carries the panic, with its stack, to the planner.
func (g *producer) fillCatching(blk *block) {
	defer func() {
		if v := recover(); v != nil {
			blk.panicked, blk.stack, blk.last = v, debug.Stack(), true
		}
	}()
	g.fill(blk)
}

// fill gives the member buffers blk brought back to the batcher, then
// runs the gateway into blk until the block is full (blockSteps,
// blockArrivals) or the gateway has ended.
func (g *producer) fill(blk *block) {
	handOver(&g.batcher.arrFree, &blk.arrFree)
	handOver(&g.batcher.tenFree, &blk.tenFree)
	g.steps = blk.steps[:0]
	from := g.tally.Offered
	for !g.ended && len(g.steps) < blockSteps && g.tally.Offered-from < blockArrivals {
		g.step()
	}
	blk.steps, g.steps = g.steps, nil
	blk.tally, blk.last = g.tally, g.ended
}

// step offers the next arrival to the batcher or, at the end of the
// source, runs the clock to the horizon and flushes.
func (g *producer) step() {
	req := g.cur
	if req == nil || req.Arrival >= g.horizon {
		g.finish()
		return
	}
	at := req.Arrival
	g.run(at)
	g.tally.Offered++
	if err := g.batcher.add(req); err != nil {
		g.tally.Dropped++
	}
	g.cur = g.next()
	if g.cur != nil && !(g.cur.Arrival >= at) {
		panic(fmt.Sprintf("queue: arrival at %v after one at %v", g.cur.Arrival, at))
	}
}

// run fires the window seals due at or before t.
func (g *producer) run(t float64) {
	if err := g.clock.RunUntil(t); err != nil {
		panic(err) // unreachable: the clock is a root
	}
}

// finish seals what the horizon leaves: the window seals due by then,
// then Flush's batches, marked as flushed.
func (g *producer) finish() {
	g.run(g.horizon)
	first := len(g.steps)
	g.batcher.Flush()
	for i := first; i < len(g.steps); i++ {
		g.steps[i].Kind = StepFlush
	}
	g.tally.Events = uint64(g.tally.Offered) + g.clock.Executed()
	g.tally.Shells = g.batcher.pbFree.Stats()
	g.ended = true
	g.cur = nil
}

// keep is the private batcher's emit hook: it records the sealed batch
// as a step and recycles the batch's shell into the batcher. A plan's
// step gets the member times copied into the arena, and the arrival
// buffer goes back to the batcher; a pulled step keeps both buffers
// until the replaying batcher releases them.
func (g *producer) keep(b *Batch) {
	st := Step{Kind: StepSeal, Batch: *b}
	b.Tenants = nil // the step owns them now
	if !g.planned {
		b.Arrivals = nil
	} else {
		n := len(b.Arrivals)
		if cap(g.arena)-len(g.arena) < n {
			g.arena = make([]float64, 0, max(arenaChunk, n))
		}
		start := len(g.arena)
		g.arena = append(g.arena, b.Arrivals...)
		st.Batch.Arrivals = g.arena[start:len(g.arena):len(g.arena)]
		st.Batch.shared = true
	}
	g.steps = append(g.steps, st)
	g.batcher.Release(b)
}
