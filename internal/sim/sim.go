// Package sim provides a deterministic discrete-event simulation engine.
//
// All of PROTEAN's substrates (the GPU model, the cluster, the spot-VM
// market) run in virtual time on top of this engine. Time is measured in
// seconds as float64. Events scheduled for the same instant fire in the
// order they were scheduled, which makes every experiment exactly
// reproducible for a given seed.
//
// # Sharded execution
//
// A root simulation can host lanes (per-shard child simulations, see
// Lane): each lane owns its own timer heap, clock, and derived random
// stream, and lane events run independently between the root's events.
// Every root event is a synchronisation barrier — lanes first execute
// everything scheduled up to (and including) the root event's
// timestamp, then the root event runs exclusively and may touch any
// lane's state. The phase schedule, each lane's event order, and the
// merged trace are all pure functions of the event timestamps, so the
// output is byte-identical whether phases run inline (SetWorkers(1))
// or across a worker pool (SetWorkers(n)).
//
// The one exception is a skipped idle tick (see Ticker.SkipWhile): when
// a root ticker's next ticks have no lane event and no other root event
// before them, and its idle predicate says they would do nothing, the
// root advances past them without running them. Such a tick is not a
// barrier, but nothing could have observed one there: no lane runs and
// no timer is created inside the skipped span, the ticks still count
// in Executed, and the ticker is re-armed at the same float sum with a
// fresh sequence number, so every later event keeps its time and its
// tie order.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"protean/internal/obs"
)

// Stream is the simulation's deterministic random source: a seeded
// *rand.Rand that remembers the seed it was built from, which is what
// makes stable child-stream derivation possible. Draw methods
// (Float64, Int63, NormFloat64, ...) come from the embedded *rand.Rand.
type Stream struct {
	*rand.Rand
	seed uint64
}

func newStream(seed uint64) *Stream {
	return &Stream{Rand: rand.New(rand.NewSource(int64(seed))), seed: seed}
}

// Child derives the independent stream identified by label. The child
// seed is a splitmix64 finalizer over the parent seed XOR an FNV-1a
// hash of the label, so derivation consumes nothing from the parent
// stream: a child's values depend only on (root seed, derivation
// labels), never on how many draws the parent made, how many shards
// the run uses, or in what order sibling subsystems were built. This
// is the blessed pattern for giving a subsystem its own stream —
// derive once at construction, store the child, and never touch the
// shared parent again.
func (st *Stream) Child(label string) *Stream {
	return newStream(splitmix64(st.seed ^ fnv64(label)))
}

// splitmix64 is the SplitMix64 finalizer — a bijective mixer whose
// output sequence passes BigCrush, used here to turn structured seed
// material into uncorrelated stream seeds.
func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// fnv64 is the FNV-1a hash of s.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Timer is a handle to a scheduled event. It can be cancelled until it
// fires, and rescheduled in place (see Reschedule) without allocating a
// replacement.
type Timer struct {
	at    float64
	seq   uint64
	fn    func()
	index int // heap index; -1 when not queued (fired or cancelled)
	sim   *Sim
}

// At reports the virtual time the timer is scheduled to fire at.
//
//lint:ignore deadcode gpu's BenchmarkSubmitCompleteCycle runs to it; TestRescheduleEarlierAndLater reads it
func (t *Timer) At() float64 { return t.at }

// Cancel prevents the timer from firing and removes it from the queue
// at once. It reports whether the timer was still pending. Cancelling an
// already-fired or already-cancelled timer is a no-op.
//
//protean:hotpath
func (t *Timer) Cancel() bool {
	if t == nil || t.sim == nil || t.index < 0 {
		return false
	}
	t.sim.queue.remove(t.index)
	return true
}

// Reschedule moves the timer to fire at virtual time at. The timer keeps
// its callback but receives a fresh sequence number, so its tie-break
// behaviour at an already-populated instant is identical to cancelling it
// and scheduling a new timer there: it fires after every event already
// scheduled for the same time. A fired or cancelled timer is re-armed.
// Unlike the cancel-and-reallocate pattern, the heap entry is moved in
// place, so the hot rebalance path and every ticker tick allocate
// nothing.
//
//protean:hotpath
func (t *Timer) Reschedule(at float64) error {
	if t == nil || t.sim == nil || t.fn == nil {
		return errors.New("sim: reschedule of a timer not created by this simulation")
	}
	s := t.sim
	if math.IsNaN(at) || math.IsInf(at, 0) {
		return fmt.Errorf("sim: reschedule at non-finite time %v", at)
	}
	if now := s.Now(); at < now {
		return fmt.Errorf("sim: reschedule at %.9f before now %.9f", at, now)
	}
	t.at = at
	t.seq = s.seq
	s.seq++
	if t.index >= 0 {
		s.queue.fix(t.index)
	} else {
		s.queue.push(t)
	}
	s.armed(at)
	return nil
}

// Sim is a discrete-event simulator. The zero value is not usable; use New.
type Sim struct {
	now      float64
	seq      uint64
	queue    timerHeap
	rng      *Stream
	tracer   obs.Tracer
	executed uint64 // events run by this sim's own loop (excludes lanes)

	// Sharded execution. A root sim owns lanes; a lane points back at
	// its root through parent and never has lanes of its own.
	parent  *Sim
	label   string
	lanes   []*Sim
	workers int

	// Root-only phase machinery. laneNext is a lower bound on every
	// lane's next event time: a barrier below it has no lane work.
	inPhase     bool // a lane phase is executing; lane tracers buffer
	laneNext    float64
	pool        *workerPool
	phaseActive []*Sim
	evScratch   []obs.Event
	skippers    []*Ticker // live tickers registered with SkipWhile

	// Lane-only phase machinery: buffered trace events and the reusable
	// phase thunk the worker pool runs (opaque to the pool, so lane
	// execution stays off every goroutine's static callgraph).
	buf   []obs.Event
	bound float64
	thunk func()
}

// New returns a simulator whose random source is seeded with seed.
func New(seed int64) *Sim {
	return &Sim{rng: newStream(uint64(seed)), workers: 1}
}

// SetTracer installs the observability tracer every component driven by
// this simulation emits lifecycle events to. A nil tracer restores the
// no-op default. The tracer is a pure observer: it must not schedule
// events, draw randomness, or otherwise influence the run.
func (s *Sim) SetTracer(t obs.Tracer) { s.tracer = t }

// Tracer returns the installed tracer, or the no-op tracer when none is
// installed. Components hold a *Sim already, so this is how the tracer
// threads through gpu, queue, cluster, vm and autoscale without each
// layer growing a configuration knob. On a lane the returned tracer
// routes to the root: buffered during a lane phase (merged in
// deterministic (time, lane, emission) order at the next barrier) and
// passed straight through when the root is executing exclusively.
func (s *Sim) Tracer() obs.Tracer {
	if s.parent != nil {
		return laneTracer{ln: s}
	}
	if s.tracer == nil {
		return obs.Nop()
	}
	return s.tracer
}

// Now returns the current virtual time in seconds. A lane's own clock
// only moves when it runs an event, so a lane whose phases were skipped
// reads the root's clock: its time is max(lane clock, root clock).
// During a phase every running lane event is at or after the root clock,
// so the rule holds there too.
func (s *Sim) Now() float64 {
	if s.parent != nil && s.parent.now > s.now {
		return s.parent.now
	}
	return s.now
}

// Rand returns the simulation's deterministic random stream. Subsystems
// must not draw from it directly once the run starts — derive a child
// with Rand().Child(label) at construction instead, so draw order stays
// confined to one owner and sharded lanes cannot reorder it.
func (s *Sim) Rand() *Stream { return s.rng }

// Executed returns the number of events executed so far, including
// every lane's events. This is the numerator of the events/sec
// benchmark metric.
func (s *Sim) Executed() uint64 {
	n := s.executed
	for _, ln := range s.lanes {
		n += ln.executed
	}
	return n
}

// Lane creates a child simulation (a shard) on the root s. A lane owns
// its own clock, timer heap, sequence counter, and a random stream
// derived as Rand().Child("lane/"+label) — stable across shard counts.
// Lanes advance between the root's events (see RunUntil); code running
// on a lane must only touch that lane's state, while root events run
// exclusively and may touch any lane. Lanes cannot be nested.
func (s *Sim) Lane(label string) *Sim {
	if s.parent != nil {
		panic("sim: lanes cannot be nested")
	}
	ln := &Sim{
		rng:     s.rng.Child("lane/" + label),
		parent:  s,
		label:   label,
		workers: 1,
	}
	ln.thunk = func() { ln.runTo(ln.bound) }
	s.lanes = append(s.lanes, ln)
	return ln
}

// SetWorkers sets how many OS goroutines execute lane phases: 1 runs
// every phase inline on the caller's goroutine, n > 1 fans independent
// lanes across n workers. The schedule, the per-lane event order, and
// the merged trace do not depend on the setting — only wall clock does.
func (s *Sim) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	s.workers = n
}

// At schedules fn to run at virtual time t. Scheduling in the past is an
// error; scheduling exactly at Now is allowed and fires before time
// advances.
func (s *Sim) At(t float64, fn func()) (*Timer, error) {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, fmt.Errorf("sim: schedule at non-finite time %v", t)
	}
	if now := s.Now(); t < now {
		return nil, fmt.Errorf("sim: schedule at %.9f before now %.9f", t, now)
	}
	if fn == nil {
		return nil, errors.New("sim: schedule nil func")
	}
	//lint:ignore hotalloc the Timer is the event being created; hot callers (gpu rebalance) reuse timers via Reschedule and only reach this for newly started jobs
	tm := &Timer{at: t, seq: s.seq, fn: fn, index: -1, sim: s}
	s.seq++
	s.queue.push(tm)
	s.armed(t)
	return tm, nil
}

// armed keeps the root's laneNext bound valid when root context arms a
// lane timer for time t. Timers a lane arms for itself during a phase
// need nothing here: the bound is recomputed after every phase that ran.
func (s *Sim) armed(t float64) {
	if p := s.parent; p != nil && !p.inPhase && t < p.laneNext {
		p.laneNext = t
	}
}

// After schedules fn to run d seconds from now. Negative delays are
// clamped to zero.
func (s *Sim) After(d float64, fn func()) (*Timer, error) {
	if d < 0 {
		d = 0
	}
	return s.At(s.Now()+d, fn)
}

// MustAfter is After for callers that schedule with non-negative, finite
// delays computed internally; it panics on the programming errors After
// would report.
func (s *Sim) MustAfter(d float64, fn func()) *Timer {
	tm, err := s.After(d, fn)
	if err != nil {
		panic(err)
	}
	return tm
}

// Pending returns the number of queued events. Cancel removes its timer
// from the queue at once, so this is the queue's length.
//
//protean:hotpath
//lint:ignore deadcode TestPendingCountsLiveTimers, BenchmarkPending and gpu's TestCachedMemoryBalancesToZero read it
func (s *Sim) Pending() int { return len(s.queue) }

// Run executes events until the queue is empty.
func (s *Sim) Run() error { return s.RunUntil(math.Inf(1)) }

// RunUntil executes events with timestamps <= horizon, advancing the clock
// as it goes. When it returns the clock is at min(horizon, last event time)
// unless the queue drained earlier; the clock never moves backwards, so a
// horizon already in the past leaves it untouched.
//
// With lanes present, RunUntil alternates lane phases and root events:
// before each root event at time t, every lane executes all of its
// events with timestamps <= t (lanes are mutually independent, so
// phases may fan out across SetWorkers goroutines), and then the root
// event runs exclusively; every lane then reads t as its time (see Now).
// Lane events at exactly the root's timestamp therefore run before the
// root event — a fixed, documented tie rule.
func (s *Sim) RunUntil(horizon float64) error {
	if s.parent != nil {
		return errors.New("sim: lanes are driven by their root simulation")
	}
	if len(s.lanes) == 0 {
		return s.runLocal(horizon)
	}
	return s.runSharded(horizon)
}

// runLocal is the classic single-heap event loop.
func (s *Sim) runLocal(horizon float64) error {
	for len(s.queue) > 0 {
		next := s.queue[0]
		if next.at > horizon {
			if horizon > s.now {
				s.now = horizon
			}
			return nil
		}
		s.queue.remove(0)
		s.now = next.at
		s.executed++
		next.fn()
	}
	if !math.IsInf(horizon, 1) && horizon > s.now {
		s.now = horizon
	}
	return nil
}

// runSharded is the lane-aware loop documented on RunUntil.
func (s *Sim) runSharded(horizon float64) error {
	if s.workers > 1 && s.pool == nil {
		// The pool is scoped to one run so idle sims hold no goroutines;
		// channel capacities cover every lane so a phase can enqueue all
		// of its work without anyone blocking on a full buffer.
		s.pool = newWorkerPool(s.workers-1, len(s.lanes))
		defer func() {
			s.pool.close()
			s.pool = nil
		}()
	}
	for {
		rootNext := s.peekTime()
		if bound := math.Min(rootNext, horizon); bound >= s.laneNext {
			s.runLanePhase(bound)
		}
		if rootNext > horizon {
			if !math.IsInf(horizon, 1) && horizon > s.now {
				s.now = horizon
			}
			return nil
		}
		if math.IsInf(rootNext, 1) {
			// horizon and the root queue are both infinite/exhausted: the
			// lane phase above drained every lane completely.
			return nil
		}
		// Every lane event at or before rootNext has run, so laneNext is
		// strictly after it: an idle tick here is no barrier.
		if len(s.skippers) > 0 && s.skipIdleTicks(horizon) {
			continue
		}
		next := s.queue.remove(0)
		s.now = next.at
		s.executed++
		next.fn()
	}
}

// skipIdleTicks passes over the idle ticks at the head of the root
// queue (see Ticker.SkipWhile) and reports whether it skipped any. The
// head must be at or before horizon and strictly before laneNext.
// Ticks are skipped while they fall strictly before laneNext and the
// next other root timer, and at or before horizon: nothing else runs
// in that span, so the idle predicate, checked once, holds for all of
// it. Each skipped tick
// counts in executed and moves the clock, and the timer is re-armed
// once at the ticker's own float sum with a fresh sequence number,
// which orders it against every pending timer as the last skipped
// tick's own re-arm would have.
func (s *Sim) skipIdleTicks(horizon float64) bool {
	head := s.queue[0]
	var tk *Ticker
	for _, k := range s.skippers {
		if k.timer == head {
			tk = k
			break
		}
	}
	if tk == nil || !tk.idle() {
		return false
	}
	limit := math.Min(s.laneNext, s.nextOtherTime())
	if head.at >= limit {
		return false
	}
	last, t, n := head.at, head.at, uint64(0)
	for t < limit && t <= horizon {
		last = t
		n++
		t += tk.period
	}
	s.now = last
	s.executed += n
	if err := head.Reschedule(t); err != nil {
		panic(err)
	}
	return true
}

// nextOtherTime returns the timestamp of the earliest timer after the
// head, or +Inf when the head is alone. In a binary heap it is one of
// the head's two children.
func (s *Sim) nextOtherTime() float64 {
	t := math.Inf(1)
	for i := 1; i <= 2 && i < len(s.queue); i++ {
		if s.queue[i].at < t {
			t = s.queue[i].at
		}
	}
	return t
}

// peekTime returns the timestamp of the next event, or +Inf when none
// remain.
func (s *Sim) peekTime() float64 {
	if len(s.queue) == 0 {
		return math.Inf(1)
	}
	return s.queue[0].at
}

// runLanePhase executes every lane event with timestamp <= bound and
// recomputes laneNext. The root loop skips it for a barrier below
// laneNext; that is most barriers, since the root's dispatch quantum
// ticks far more often than lanes have work (and an idle quantum is
// not even a barrier: skipIdleTicks passes over it). Lane clocks are not
// synchronised here: Now reads a lane as at least the root's clock.
// Lanes are independent, so when a pool exists the phase fans out;
// results are identical either way because each lane's events run
// sequentially on exactly one goroutine and lanes share no state until
// the next barrier.
func (s *Sim) runLanePhase(bound float64) {
	active := s.phaseActive[:0]
	next := math.Inf(1)
	for _, ln := range s.lanes {
		if t := ln.peekTime(); t <= bound {
			active = append(active, ln)
		} else if t < next {
			next = t
		}
	}
	s.phaseActive = active[:0]
	if len(active) > 0 {
		s.inPhase = true
		if s.pool != nil && len(active) > 1 {
			for _, ln := range active[1:] {
				ln.bound = bound
				s.pool.submit(ln.thunk)
			}
			active[0].bound = bound
			active[0].thunk()
			s.pool.wait(len(active) - 1)
		} else {
			for _, ln := range active {
				ln.runTo(bound)
			}
		}
		s.inPhase = false
		s.flushLaneEvents()
	}
	// Only the lanes that ran have new heads.
	for _, ln := range active {
		if t := ln.peekTime(); t < next {
			next = t
		}
	}
	s.laneNext = next
}

// runTo executes the lane's events with timestamps <= bound. No stop
// check: lanes are halted at the next barrier by the root loop.
func (ln *Sim) runTo(bound float64) {
	for len(ln.queue) > 0 {
		next := ln.queue[0]
		if next.at > bound {
			return
		}
		ln.queue.remove(0)
		ln.now = next.at
		ln.executed++
		next.fn()
	}
}

// flushLaneEvents merges the trace events lanes buffered during the
// phase into the root tracer in (time, lane index, emission order) —
// a total order independent of how the phase was scheduled. Each
// lane's buffer is already time-sorted (lanes execute in time order),
// so a stable sort over the index-ordered concatenation realises the
// merge.
func (s *Sim) flushLaneEvents() {
	if s.tracer == nil || !s.tracer.Enabled() {
		return
	}
	total := 0
	for _, ln := range s.lanes {
		total += len(ln.buf)
	}
	if total == 0 {
		return
	}
	merged := s.evScratch[:0]
	for _, ln := range s.lanes {
		merged = append(merged, ln.buf...)
		ln.buf = ln.buf[:0]
	}
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].T < merged[j].T })
	for i := range merged {
		s.tracer.Emit(merged[i])
	}
	s.evScratch = merged[:0]
}

// laneTracer routes a lane's trace events to the root tracer: buffered
// while a lane phase is executing (many lanes emit concurrently; the
// root merges deterministically at the barrier), passed straight
// through in root context where emission order is already the global
// event order.
type laneTracer struct{ ln *Sim }

func (lt laneTracer) Enabled() bool {
	root := lt.ln.parent
	return root.tracer != nil && root.tracer.Enabled()
}

func (lt laneTracer) Emit(ev obs.Event) {
	root := lt.ln.parent
	if root.inPhase {
		lt.ln.buf = append(lt.ln.buf, ev)
		return
	}
	root.Tracer().Emit(ev)
}

// workerPool runs opaque thunks across a fixed set of goroutines. The
// thunks a phase submits are closures over disjoint lanes, and the
// submit/wait channel pair carries the happens-before edges that make
// each phase a fork-join region.
type workerPool struct {
	tasks chan func()
	done  chan struct{}
}

// newWorkerPool starts n workers; cap bounds how many tasks can be in
// flight, sized so submit and done never block each other.
func newWorkerPool(n, cap int) *workerPool {
	if cap < n {
		cap = n
	}
	p := &workerPool{tasks: make(chan func(), cap), done: make(chan struct{}, cap)}
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

func (p *workerPool) worker() {
	for f := range p.tasks {
		f()
		p.done <- struct{}{}
	}
}

func (p *workerPool) submit(f func()) { p.tasks <- f }

func (p *workerPool) wait(n int) {
	for i := 0; i < n; i++ {
		<-p.done
	}
}

func (p *workerPool) close() { close(p.tasks) }

// Ticker invokes a function on a fixed period until stopped.
type Ticker struct {
	sim      *Sim
	period   float64
	fn       func()
	timer    *Timer
	stopped  bool
	fireNext func()
	idle     func() bool // SkipWhile's predicate; nil when never skipped
}

// Every schedules fn to run every period seconds, first firing one period
// from now. Period must be positive.
func (s *Sim) Every(period float64, fn func()) (*Ticker, error) {
	if period <= 0 || math.IsNaN(period) || math.IsInf(period, 0) {
		return nil, fmt.Errorf("sim: ticker period %v must be positive and finite", period)
	}
	if fn == nil {
		return nil, errors.New("sim: ticker nil func")
	}
	tk := &Ticker{sim: s, period: period, fn: fn}
	tk.fireNext = func() {
		if tk.stopped {
			return
		}
		tk.fn()
		if tk.stopped {
			return
		}
		// Re-arming the timer that just fired takes a fresh sequence
		// number, as a new timer would, and allocates nothing.
		if err := tk.timer.Reschedule(s.Now() + tk.period); err != nil {
			panic(err)
		}
	}
	tk.timer = s.MustAfter(period, tk.fireNext)
	return tk, nil
}

// SkipWhile lets the root loop pass over this ticker's ticks without
// running them while idle reports true. idle must report true only
// when a tick's callback would change nothing, and it must read only
// state that events change, never the clock: the root checks it once
// for a whole span of ticks that holds no lane event and no other root
// event, runs none of them, and re-arms the ticker at the end of the
// span (see the package doc). The output is the same bytes with or
// without the hook; only the cost of idle ticks changes. Only a root
// that hosts lanes skips; a root without lanes runs every tick.
// SkipWhile on a lane ticker panics.
func (t *Ticker) SkipWhile(idle func() bool) {
	s := t.sim
	if s.parent != nil {
		panic("sim: SkipWhile on a lane ticker")
	}
	if t.idle == nil {
		s.skippers = append(s.skippers, t)
	}
	t.idle = idle
}

// Stop cancels future ticks and drops the ticker's self-referential
// closure, timer and idle predicate so a stopped ticker holds no
// references — even when Stop races a tick pending at the same instant,
// Cancel takes that tick out of the queue.
func (t *Ticker) Stop() {
	if t == nil || t.stopped {
		return
	}
	t.stopped = true
	t.timer.Cancel()
	t.timer = nil
	t.fireNext = nil
	if i := slices.Index(t.sim.skippers, t); i >= 0 {
		t.sim.skippers = slices.Delete(t.sim.skippers, i, i+1)
	}
	t.idle = nil
}

// timerHeap is a binary min-heap of timers ordered by (time, sequence).
// Each timer records its slot, so Cancel and Reschedule reach it
// directly. The order is total, so the pop sequence does not depend on
// the heap's layout.
type timerHeap []*Timer

func (h timerHeap) less(i, j int) bool {
	//lint:ignore floateq exact tie-break: an epsilon would merge distinct event times and reorder the queue
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h timerHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *timerHeap) push(tm *Timer) {
	tm.index = len(*h)
	//lint:ignore hotalloc the queue's backing array grows to the peak number of pending timers and is then reused; steady state appends into spare capacity
	*h = append(*h, tm)
	h.up(tm.index)
}

// remove takes the timer at slot i out of the heap and returns it.
func (h *timerHeap) remove(i int) *Timer {
	q := *h
	n := len(q) - 1
	tm := q[i]
	if i != n {
		q[i] = q[n]
		q[i].index = i
	}
	q[n] = nil
	*h = q[:n]
	if i != n {
		h.fix(i)
	}
	tm.index = -1
	return tm
}

// fix restores the heap order after the timer at slot i changed key.
func (h timerHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

func (h timerHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			return
		}
		h.swap(i, j)
		j = i
	}
}

// down sifts slot i0 towards the leaves and reports whether it moved.
func (h timerHeap) down(i0 int) bool {
	i := i0
	for {
		j := 2*i + 1
		if j >= len(h) {
			break
		}
		if r := j + 1; r < len(h) && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}
