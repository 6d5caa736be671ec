// Package sim provides a deterministic discrete-event simulation engine.
//
// All of PROTEAN's substrates (the GPU model, the cluster, the spot-VM
// market) run in virtual time on top of this engine. Time is measured in
// seconds as float64. One simulation's events scheduled for the same
// instant fire in the order they were scheduled (lanes, below, add a
// rank between simulations), which makes every experiment exactly
// reproducible for a given seed.
//
// # Lanes
//
// A root simulation can host lanes (per-node child simulations, see
// Lane). Every timer, the root's and every lane's, sits in the root's
// one queue, ordered by (time, rank, sequence). A lane's rank is its
// creation index and the root's rank is above every lane's, so at one
// instant lane timers fire before root timers, and lower lanes before
// higher ones; the sequence number, one counter for the whole queue,
// orders one owner's timers at an instant by when they were armed.
// There is one clock, the root's: running an event moves it to the
// event's time, and every lane reads it. Lane tracers are the root's,
// so trace events come out in (time, lane, emission) order. The event
// order, and with it the trace, is a pure function of the event
// timestamps.
//
// The one exception is a skipped idle tick (see Ticker.SkipWhile): when
// a root ticker's next ticks have no other event, lane or root, before
// them, and its idle predicate says they would do nothing, the root
// advances past them without running them. Nothing could have observed
// them: no event runs and no timer is created inside the skipped span,
// the ticks still count in Executed, and the ticker is re-armed at the
// same float sum with a fresh sequence number, so every later event
// keeps its time and its tie order.
package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"protean/internal/obs"
)

// Stream is the simulation's deterministic random source: a seeded
// Rand that remembers the seed it was built from, which is what makes
// stable child-stream derivation possible. Its draws (Float64, Intn,
// ExpFloat64, NormFloat64) come from the embedded Rand, which is held
// by value, so a stream is one allocation.
type Stream struct {
	Rand
	seed uint64
}

func newStream(seed uint64) *Stream {
	st := &Stream{seed: seed}
	st.setSeed(int64(seed))
	return st
}

// Child derives the independent stream identified by label. The child
// seed is a splitmix64 finalizer over the parent seed XOR an FNV-1a
// hash of the label, so derivation consumes nothing from the parent
// stream: a child's values depend only on (root seed, derivation
// labels), never on how many draws the parent made or in what order
// sibling subsystems were built. This is the blessed pattern for giving
// a subsystem its own stream — derive once at construction, store the
// child, and never touch the shared parent again.
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
	rank  int // the owner's rank: its lane index, or rootRank
	seq   uint64
	fn    func()
	index int // heap index; -1 when not queued (fired or cancelled)
	sim   *Sim
}

// At reports the virtual time the timer is scheduled to fire at.
//
//lint:ignore deadcode gpu's BenchmarkSubmitCompleteCycle runs to it; TestRescheduleEarlierAndLater reads it
func (t *Timer) At() float64 { return t.at }

// Sim returns the simulation, root or lane, the timer was created on.
// The timer keeps that sim's rank for life, so an owner that re-arms a
// kept timer checks it is still on the same sim.
func (t *Timer) Sim() *Sim { return t.sim }

// Cancel prevents the timer from firing and removes it from the queue
// at once. It reports whether the timer was still pending. Cancelling an
// already-fired or already-cancelled timer is a no-op.
//
//protean:hotpath
func (t *Timer) Cancel() bool {
	if t == nil || t.sim == nil || t.index < 0 {
		return false
	}
	t.sim.root.queue.remove(t.index)
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
	if math.IsNaN(at) || math.IsInf(at, 0) {
		return fmt.Errorf("sim: reschedule at non-finite time %v", at)
	}
	if now := t.sim.Now(); at < now {
		return fmt.Errorf("sim: reschedule at %.9f before now %.9f", at, now)
	}
	r := t.sim.root
	t.at = at
	t.seq = r.seq
	r.seq++
	if t.index >= 0 {
		r.queue.fix(t.index)
	} else {
		r.queue.push(t)
	}
	return nil
}

// Continue re-arms the timer from inside its own callback, as
// Reschedule does, and reports whether the re-armed firing is the next
// event to run. That is so while RunUntil runs, at is at or before its
// horizon, and at sorts before the queue's head by (time, rank); a
// fresh sequence number would lose a tie of the same rank. Then
// Continue queues nothing: it moves the clock to at, counts the
// firing in Executed and returns true, and the callback runs the
// firing's work itself, in a loop. Otherwise it calls Reschedule and
// returns false. Either way events run in the order Reschedule alone
// gives them; a timer that fires in bursts (the cluster's gateway
// replay) just saves a heap round trip per firing.
//
//protean:hotpath
func (t *Timer) Continue(at float64) (bool, error) {
	if t != nil && t.sim != nil && t.fn != nil && t.index < 0 {
		r := t.sim.root
		if at >= r.now && at <= r.horizon && at < math.Inf(1) &&
			(len(r.queue) == 0 || precedes(at, t.rank, r.queue[0])) {
			t.at = at
			r.now = at
			r.executed++
			return true, nil
		}
	}
	return false, t.Reschedule(at)
}

// precedes reports whether a timer of the given rank at time at sorts
// before u whatever their sequence numbers.
func precedes(at float64, rank int, u *Timer) bool {
	//lint:ignore floateq exact tie-break: an epsilon would merge distinct event times and reorder the queue
	if at != u.at {
		return at < u.at
	}
	return rank < u.rank
}

// rootRank is the root's heap rank: at one instant every lane's timers
// fire before the root's.
const rootRank = math.MaxInt

// Sim is a discrete-event simulator. The zero value is not usable; use New.
type Sim struct {
	pending int  // this sim's timers in the queue
	rank    int  // lane index, or rootRank
	root    *Sim // the sim whose queue holds this sim's timers; a root's is itself

	// Used on a root only.
	now      float64
	rng      *Stream
	seq      uint64
	queue    timerHeap
	executed uint64 // events run, lanes' included
	tracer   obs.Tracer
	lanes    int       // lanes created; the next lane's rank
	skippers []*Ticker // live tickers registered with SkipWhile
	horizon  float64   // RunUntil's horizon while it runs, -Inf otherwise
}

// New returns a simulator whose random source is seeded with seed.
func New(seed int64) *Sim {
	s := &Sim{rng: newStream(uint64(seed)), rank: rootRank, horizon: math.Inf(-1)}
	s.root = s
	return s
}

// isLane reports whether s is a lane of some root.
func (s *Sim) isLane() bool { return s.root != s }

// SetTracer installs the observability tracer every component driven by
// this simulation emits lifecycle events to. A nil tracer restores the
// no-op default. The tracer is a pure observer: it must not schedule
// events, draw randomness, or otherwise influence the run.
func (s *Sim) SetTracer(t obs.Tracer) { s.tracer = t }

// Tracer returns the installed tracer, or the no-op tracer when none is
// installed. Components hold a *Sim already, so this is how the tracer
// threads through gpu, queue, cluster, vm and autoscale without each
// layer growing a configuration knob. A lane returns its root's tracer:
// events reach it in the order the root's loop runs them.
func (s *Sim) Tracer() obs.Tracer {
	if t := s.root.tracer; t != nil {
		return t
	}
	return obs.Nop()
}

// Now returns the current virtual time in seconds. A lane reads its
// root's clock.
func (s *Sim) Now() float64 { return s.root.now }

// Rand returns the simulation's deterministic random stream; a lane
// returns its root's, so a lane and its root share one stream.
// Subsystems must not draw from it directly once the run starts —
// derive a child with Rand().Child(label) at construction instead, so
// draw order stays confined to one owner and lanes cannot reorder it.
func (s *Sim) Rand() *Stream { return s.root.rng }

// Executed returns the number of events the root's loop has executed
// so far, including every lane's events; a lane reports its root's
// count. This is the numerator of the events/sec benchmark metric.
func (s *Sim) Executed() uint64 { return s.root.executed }

// AdjustExecuted adds delta to the root's executed count. It is for a
// component that stands in for events the loop did not run: the
// cluster's planned gateway runs arrivals and window seals on a private
// clock and replays only the seals, so it books the events it stands
// for and takes back its own replay firings, and Executed counts the
// events of the model either way.
func (s *Sim) AdjustExecuted(delta int64) {
	s.root.executed = uint64(int64(s.root.executed) + delta)
}

// Lane creates a child simulation on the root s: a group of timers
// with its own heap rank and Pending count. It has no clock or random
// stream of its own: Now and Rand return the root's. Its timers share the
// root's queue and rank by the lane's creation index (see the package
// doc). Lanes cannot be nested.
func (s *Sim) Lane(label string) *Sim {
	if s.isLane() {
		panic("sim: lanes cannot be nested")
	}
	ln := &Sim{rank: s.lanes, root: s}
	s.lanes++
	return ln
}

// SetWorkers does nothing: every event runs on the caller's goroutine.
// It stays only because the perfbench module still calls it; ROADMAP
// item 11, the benchmark re-baseline, deletes it.
func (s *Sim) SetWorkers(int) {}

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
	r := s.root
	//lint:ignore hotalloc the Timer is the event being created; hot callers keep their timers and re-arm them with Reschedule, so gpu rebalance reaches this only at a pooled Job object's first start
	tm := &Timer{at: t, rank: s.rank, seq: r.seq, fn: fn, index: -1, sim: s}
	r.seq++
	r.queue.push(tm)
	return tm, nil
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

// Pending returns the number of this sim's own timers in the queue (a
// root's excludes its lanes'). Cancel removes its timer from the queue
// at once.
//
//protean:hotpath
//lint:ignore deadcode TestPendingCountsLiveTimers, BenchmarkPending and gpu's TestCachedMemoryBalancesToZero read it
func (s *Sim) Pending() int { return s.pending }

// Run executes events until the queue is empty.
func (s *Sim) Run() error { return s.RunUntil(math.Inf(1)) }

// RunUntil executes events with timestamps <= horizon in (time, rank,
// sequence) order, lanes' and root's alike, moving the clock to each
// event's time as it goes. When it returns the clock is at horizon, or
// at the last event's time when the horizon is infinite; it never
// moves backwards, so a horizon already in the past leaves it
// untouched.
func (s *Sim) RunUntil(horizon float64) error {
	if s.isLane() {
		return errors.New("sim: lanes are driven by their root simulation")
	}
	s.horizon = horizon
	for len(s.queue) > 0 {
		next := s.queue[0]
		if next.at > horizon {
			break
		}
		if next.rank == rootRank && len(s.skippers) > 0 && s.skipIdleTicks(horizon) {
			continue
		}
		s.queue.remove(0)
		s.now = next.at
		s.executed++
		next.fn()
	}
	s.horizon = math.Inf(-1)
	if !math.IsInf(horizon, 1) && horizon > s.now {
		s.now = horizon
	}
	return nil
}

// skipIdleTicks passes over the idle ticks at the head of the queue
// (see Ticker.SkipWhile) and reports whether it skipped any. The head
// is a root timer at or before horizon, so no lane timer shares its
// instant. Ticks are skipped while they fall strictly before the next
// other timer, lane or root, and at or before horizon: nothing else
// runs in that span, so the idle predicate, checked once, holds for all
// of it. Each skipped tick counts in executed and moves the clock, and
// the timer is re-armed once at the ticker's own float sum with a fresh
// sequence number, which orders it against every pending timer as the
// last skipped tick's own re-arm would have.
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
	// The next other timer is one of the head's two children.
	limit := math.Inf(1)
	for i := 1; i <= 2 && i < len(s.queue); i++ {
		if s.queue[i].at < limit {
			limit = s.queue[i].at
		}
	}
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
// for a whole span of ticks that holds no other event, lane or root,
// runs none of them, and re-arms the ticker at the end of the span
// (see the package doc). The output is the same bytes with or without
// the hook; only the cost of idle ticks changes. SkipWhile on a lane
// ticker panics.
func (t *Ticker) SkipWhile(idle func() bool) {
	s := t.sim
	if s.isLane() {
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

// timerHeap is a binary min-heap of timers ordered by (time, rank,
// sequence). Each timer records its slot, so Cancel and Reschedule
// reach it directly, and the heap keeps each owner's Pending count. The
// order is total, so the pop sequence does not depend on the heap's
// layout.
type timerHeap []*Timer

func (h timerHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	//lint:ignore floateq exact tie-break: an epsilon would merge distinct event times and reorder the queue
	if a.at != b.at {
		return a.at < b.at
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.seq < b.seq
}

func (h timerHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *timerHeap) push(tm *Timer) {
	tm.index = len(*h)
	tm.sim.pending++
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
	tm.sim.pending--
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
