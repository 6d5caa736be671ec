package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestRescheduleTieBreakMatchesCancelPush pins the contract Reschedule
// is built on: moving a timer to an instant that already has scheduled
// events orders it exactly as cancelling it and pushing a fresh timer
// there would — after every event already at that instant.
func TestRescheduleTieBreakMatchesCancelPush(t *testing.T) {
	run := func(reschedule bool) []string {
		s := New(1)
		var order []string
		a := s.MustAfter(10, func() { order = append(order, "a") })
		s.MustAfter(5, func() { order = append(order, "b") })
		s.MustAfter(5, func() { order = append(order, "c") })
		if reschedule {
			if err := a.Reschedule(5); err != nil {
				t.Fatalf("Reschedule: %v", err)
			}
		} else {
			a.Cancel()
			s.MustAfter(5, func() { order = append(order, "a") })
		}
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return order
	}
	got, want := run(true), run(false)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("reschedule order %v, cancel+push order %v", got, want)
	}
	if fmt.Sprint(want) != "[b c a]" {
		t.Errorf("cancel+push order = %v, want [b c a]", want)
	}
}

func TestRescheduleEarlierAndLater(t *testing.T) {
	s := New(1)
	var fired []float64
	tm := s.MustAfter(10, func() { fired = append(fired, s.Now()) })
	if err := tm.Reschedule(3); err != nil {
		t.Fatalf("Reschedule earlier: %v", err)
	}
	if tm.At() != 3 {
		t.Errorf("At = %v, want 3", tm.At())
	}
	if err := tm.Reschedule(7); err != nil {
		t.Fatalf("Reschedule later: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 1 || fired[0] != 7 {
		t.Errorf("fired at %v, want [7]", fired)
	}
}

// TestRescheduleRearmsFiredTimer: a timer that already fired can be
// rescheduled, re-arming the same allocation with its original callback.
func TestRescheduleRearmsFiredTimer(t *testing.T) {
	s := New(1)
	n := 0
	tm := s.MustAfter(1, func() { n++ })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 1 {
		t.Fatalf("fired %d times, want 1", n)
	}
	if tm.Active() {
		t.Fatal("fired timer still active")
	}
	if err := tm.Reschedule(s.Now() + 1); err != nil {
		t.Fatalf("Reschedule fired timer: %v", err)
	}
	if !tm.Active() {
		t.Fatal("re-armed timer not active")
	}
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1", got)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 2 {
		t.Errorf("fired %d times, want 2", n)
	}
}

func TestRescheduleRearmsCancelledTimer(t *testing.T) {
	s := New(1)
	n := 0
	tm := s.MustAfter(1, func() { n++ })
	tm.Cancel()
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending after cancel = %d, want 0", got)
	}
	if err := tm.Reschedule(2); err != nil {
		t.Fatalf("Reschedule cancelled timer: %v", err)
	}
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending after re-arm = %d, want 1", got)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 1 {
		t.Errorf("fired %d times, want 1", n)
	}
	if s.Now() != 2 {
		t.Errorf("Now = %v, want 2 (re-armed time)", s.Now())
	}
}

func TestRescheduleErrors(t *testing.T) {
	s := New(1)
	tm := s.MustAfter(5, func() {})
	s.MustAfter(2, func() {
		if err := tm.Reschedule(1); err == nil {
			t.Error("Reschedule into the past succeeded")
		}
	})
	if err := tm.Reschedule(math.NaN()); err == nil {
		t.Error("Reschedule at NaN succeeded")
	}
	if err := tm.Reschedule(math.Inf(1)); err == nil {
		t.Error("Reschedule at +Inf succeeded")
	}
	var zero Timer
	if err := zero.Reschedule(1); err == nil {
		t.Error("Reschedule of a zero timer succeeded")
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestPendingCountsLiveTimers pins the O(1) counter against every
// transition: push, cancel, re-arm, fire.
func TestPendingCountsLiveTimers(t *testing.T) {
	s := New(1)
	timers := make([]*Timer, 10)
	for i := range timers {
		timers[i] = s.MustAfter(float64(i+1), func() {})
	}
	if got := s.Pending(); got != 10 {
		t.Fatalf("Pending = %d, want 10", got)
	}
	for i := 0; i < 4; i++ {
		timers[i].Cancel()
	}
	if got := s.Pending(); got != 6 {
		t.Fatalf("Pending after cancels = %d, want 6", got)
	}
	timers[0].Cancel() // double cancel: no effect
	if got := s.Pending(); got != 6 {
		t.Fatalf("Pending after double cancel = %d, want 6", got)
	}
	if err := timers[1].Reschedule(20); err != nil {
		t.Fatalf("Reschedule: %v", err)
	}
	if got := s.Pending(); got != 7 {
		t.Fatalf("Pending after re-arm = %d, want 7", got)
	}
	if err := s.RunUntil(15); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending after firing = %d, want 1", got)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending after drain = %d, want 0", got)
	}
}

// TestCancelRemovesHeapEntry cancels far more timers than it keeps and
// checks that the heap holds exactly the survivors, each at the slot it
// records, and that they fire in order.
func TestCancelRemovesHeapEntry(t *testing.T) {
	s := New(1)
	const total = 1024
	timers := make([]*Timer, total)
	var fired []float64
	for i := range timers {
		timers[i] = s.MustAfter(float64(i+1), func() { fired = append(fired, s.Now()) })
	}
	for i, tm := range timers {
		if i%8 != 0 {
			tm.Cancel()
		}
	}
	live := total / 8
	if got := len(s.queue); got != live {
		t.Fatalf("heap holds %d entries for %d live timers", got, live)
	}
	for i, tm := range s.queue {
		if tm.index != i {
			t.Fatalf("heap slot %d holds a timer recording index %d", i, tm.index)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != live || !sort.Float64sAreSorted(fired) {
		t.Fatalf("fired %d survivors (sorted %v), want %d in order", len(fired), sort.Float64sAreSorted(fired), live)
	}
}

// refTimer is one arming of a timer in the reference model: the (at,
// seq) key the queue must order it by, and how many root events had
// fired when it was armed and when it fired.
type refTimer struct {
	at         float64
	seq        uint64
	armedAfter int
	firedAfter int
	live       bool // armed and not cancelled or moved since
	fired      bool
}

// refSim mirrors one simulation (the root or a lane) for
// TestTimerQueueMatchesReference: its handles, the arming records each
// handle currently owns, and the order records fired in.
type refSim struct {
	sim     *Sim
	rng     *rand.Rand
	seq     uint64 // mirrors the sim's sequence counter
	recs    []refTimer
	timers  []*Timer
	cur     []int // timers[i]'s pending record, or -1
	tickers []*Ticker
	tickCur []int // tickers[i]'s pending record, or -1 once stopped
	fired   []int
	pending int
}

// arm records a new arming at time at and returns its record index.
func (m *refSim) arm(at float64, rootFired int) int {
	m.recs = append(m.recs, refTimer{at: at, seq: m.seq, armedAfter: rootFired, live: true})
	m.seq++
	m.pending++
	return len(m.recs) - 1
}

// kill marks record r cancelled or moved.
func (m *refSim) kill(r int) {
	m.recs[r].live = false
	m.pending--
}

// continueDelays are the re-arm delays a Continue chain draws from: 0
// and the grid steps tie with queued timers, and 15 s from late in the
// run lands past the horizon.
var continueDelays = []float64{0, 0.5, 1, 15}

// continueCase names the case a Continue call falls in and whether the
// re-armed firing must run at once: only when the run is inside RunUntil,
// at is within the horizon, and at sorts before the queue's head by
// (time, rank).
func continueCase(s *Sim, tm *Timer, at float64, running bool) (string, bool) {
	switch {
	case !running:
		return "outside RunUntil", false
	case at > s.horizon:
		return "past the horizon", false
	case len(s.queue) == 0:
		return "empty queue", true
	}
	head := s.queue[0]
	switch {
	case at < head.at:
		return "before the head", true
	case at > head.at:
		return "after the head", false
	case tm.rank == head.rank:
		return "tie, same rank", false
	case tm.rank < head.rank:
		return "tie, head of higher rank", true
	}
	return "tie, head of lower rank", false
}

// TestTimerQueueMatchesReference is a differential property test of the
// timer core. Random At, Cancel, Reschedule, Continue, Every and Stop
// calls are made across a root and three lanes, from root events, from
// lane events and from before the run. Continue re-arms self-re-arming
// timers from their own callbacks, which run each firing it grants in a
// loop, as the arrival pump does; the reference treats every Continue
// as a Reschedule. Each sim's fire sequence must be its live armings
// sorted by (at, seq); each lane event must fire before the first root
// event at or after its time that was not yet run when it was armed;
// Pending and Now must match throughout; and Executed must count every
// fire. Across the seeds, Continue must meet every case continueCase
// names but the empty queue.
func TestTimerQueueMatchesReference(t *testing.T) {
	const horizon, armUntil = 60.0, 50.0
	cases := map[string]int{}
	run := func(seed int64) uint64 {
		running := false
		s := New(seed)
		models := []*refSim{{sim: s}}
		for i := 0; i < 3; i++ {
			models = append(models, &refSim{sim: s.Lane(fmt.Sprintf("node/%d", i))})
		}
		for i, m := range models {
			m.rng = rand.New(rand.NewSource(seed*10 + int64(i)))
		}
		root := models[0]
		var ops func(m, target *refSim)
		fire := func(m *refSim, r int) {
			rec := &m.recs[r]
			if !rec.live || rec.fired || m.sim.Now() != rec.at {
				t.Errorf("seed %d: arming for %v (live %v, fired %v) fired at %v", seed, rec.at, rec.live, rec.fired, m.sim.Now())
			}
			rec.fired = true
			rec.firedAfter = len(root.fired)
			m.fired = append(m.fired, r)
			m.pending--
			if m != root {
				ops(m, m)
				return
			}
			for _, other := range models {
				if other.sim.Now() != s.Now() || other.sim.Pending() != other.pending {
					t.Fatalf("seed %d: in root context at %v a sim reads Now %v, Pending %d (reference %d)",
						seed, s.Now(), other.sim.Now(), other.sim.Pending(), other.pending)
				}
			}
			for n := m.rng.Intn(3); n > 0; n-- {
				ops(m, models[m.rng.Intn(len(models))])
			}
		}
		// ops makes one random call on target's timers, drawing from m's
		// stream: the root may touch any sim, a lane only itself.
		ops = func(m, target *refSim) {
			now := target.sim.Now()
			at := now + float64(m.rng.Intn(5))/2 // a coarse grid: plenty of ties
			rootFired := len(root.fired)
			switch op := m.rng.Intn(23); {
			case op < 6 && now < armUntil:
				i := len(target.timers)
				target.cur = append(target.cur, target.arm(at, rootFired))
				tm, err := target.sim.At(at, func() {
					r := target.cur[i]
					target.cur[i] = -1
					fire(target, r)
				})
				if err != nil {
					t.Errorf("seed %d: At: %v", seed, err)
					return
				}
				target.timers = append(target.timers, tm)
			case op < 10 && len(target.timers) > 0:
				i := m.rng.Intn(len(target.timers))
				if got, want := target.timers[i].Cancel(), target.cur[i] >= 0; got != want {
					t.Errorf("seed %d: Cancel = %v, reference %v", seed, got, want)
				}
				if target.cur[i] >= 0 {
					target.kill(target.cur[i])
					target.cur[i] = -1
				}
			case op < 15 && len(target.timers) > 0 && now < armUntil:
				i := m.rng.Intn(len(target.timers))
				if target.cur[i] >= 0 {
					target.kill(target.cur[i])
				} else if !running {
					// Continue on an idle timer outside RunUntil is
					// Reschedule.
					target.cur[i] = target.arm(at, rootFired)
					name, _ := continueCase(s, target.timers[i], at, running)
					if more, err := target.timers[i].Continue(at); more || err != nil {
						t.Errorf("seed %d: Continue outside RunUntil = %v, %v", seed, more, err)
					}
					cases[name]++
					return
				}
				if err := target.timers[i].Reschedule(at); err != nil {
					t.Errorf("seed %d: Reschedule: %v", seed, err)
					return
				}
				target.cur[i] = target.arm(at, rootFired)
			case op < 19 && len(target.tickers) < 3 && now < armUntil:
				k := len(target.tickers)
				period := float64(1+m.rng.Intn(3)) / 2
				target.tickCur = append(target.tickCur, target.arm(now+period, rootFired))
				tk, err := target.sim.Every(period, func() {
					fire(target, target.tickCur[k])
					if target.tickCur[k] >= 0 {
						// The ticker re-arms itself after this callback.
						target.tickCur[k] = target.arm(target.sim.Now()+period, len(root.fired))
					}
				})
				if err != nil {
					t.Errorf("seed %d: Every: %v", seed, err)
					return
				}
				target.tickers = append(target.tickers, tk)
			case op >= 20 && now < armUntil:
				// A chain: each firing re-arms the timer with Continue
				// unless the ops it ran re-armed it already, until a
				// 1-in-4 draw or armUntil ends the chain.
				i := len(target.timers)
				target.cur = append(target.cur, target.arm(at, rootFired))
				var tm *Timer
				tm, err := target.sim.At(at, func() {
					for {
						r := target.cur[i]
						target.cur[i] = -1
						fire(target, r)
						now := target.sim.Now()
						if target.cur[i] >= 0 || now >= armUntil || target.rng.Intn(4) == 0 {
							return
						}
						next := now + continueDelays[target.rng.Intn(len(continueDelays))]
						name, want := continueCase(s, tm, next, running)
						target.cur[i] = target.arm(next, len(root.fired))
						more, err := tm.Continue(next)
						if err != nil || more != want {
							t.Errorf("seed %d: Continue (%s) = %v, %v; want %v", seed, name, more, err, want)
							return
						}
						cases[name]++
						if !more {
							return
						}
					}
				})
				if err != nil {
					t.Errorf("seed %d: At: %v", seed, err)
					return
				}
				target.timers = append(target.timers, tm)
			case op == 19 && len(target.tickers) > 0:
				k := m.rng.Intn(len(target.tickers))
				target.tickers[k].Stop()
				if r := target.tickCur[k]; r >= 0 {
					if !target.recs[r].fired {
						target.kill(r)
					}
					target.tickCur[k] = -1
				}
			}
		}
		for i := 0; i < 40; i++ {
			ops(root, models[i%len(models)])
		}
		running = true
		if err := s.RunUntil(horizon); err != nil {
			t.Fatal(err)
		}
		running = false
		var total uint64
		for i, m := range models {
			var want []int
			for r, rec := range m.recs {
				if rec.live && rec.at <= horizon {
					want = append(want, r)
				}
			}
			sort.Slice(want, func(a, b int) bool {
				x, y := m.recs[want[a]], m.recs[want[b]]
				if x.at != y.at {
					return x.at < y.at
				}
				return x.seq < y.seq
			})
			if fmt.Sprint(m.fired) != fmt.Sprint(want) {
				t.Fatalf("seed %d sim %d: fired %v, reference %v", seed, i, m.fired, want)
			}
			total += uint64(len(m.fired))
		}
		for i, m := range models[1:] {
			for _, r := range m.fired {
				rec := m.recs[r]
				// Lane timers sort before root timers of the same instant,
				// so a lane event fires just before the first root event at
				// or after its time that had not run when the lane event
				// was armed.
				want := sort.Search(len(root.fired), func(k int) bool { return root.recs[root.fired[k]].at >= rec.at })
				if rec.armedAfter > want {
					want = rec.armedAfter
				}
				if rec.firedAfter != want {
					t.Fatalf("seed %d lane %d: event at %v fired after %d root events, want %d",
						seed, i, rec.at, rec.firedAfter, want)
				}
			}
		}
		if got := s.Executed(); got != total {
			t.Fatalf("seed %d: Executed = %d, %d events fired", seed, got, total)
		}
		return total
	}
	for seed := int64(1); seed <= 5; seed++ {
		if total := run(seed); total < 100 {
			t.Fatalf("seed %d: only %d events fired; the workload is too thin", seed, total)
		}
	}
	// An empty queue is not required: with dozens of timers armed it
	// rarely occurs.
	for _, name := range []string{"outside RunUntil", "past the horizon", "before the head",
		"after the head", "tie, same rank", "tie, head of higher rank", "tie, head of lower rank"} {
		if cases[name] == 0 {
			t.Errorf("no Continue call hit the case %q: %v", name, cases)
		}
	}
	t.Logf("Continue cases: %v", cases)
}
