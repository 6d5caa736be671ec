package sim

// Equivalence tests for Ticker.SkipWhile: a root run that skips a
// ticker's idle ticks must be indistinguishable from one that runs
// them — the same firing log, the same Executed count and the same
// final clock.

import (
	"fmt"
	"reflect"
	"testing"
)

// skipPeriods are the ticker periods a schedule picks from: the 5 ms
// dispatch quantum, whose float sums are inexact, and periods whose
// sums are exact in binary.
var skipPeriods = []float64{0.005, 0.125, 0.1, 1}

// skipTicks is how many tick instants a schedule can name.
const skipTicks = 32

// skipSchedule is one randomised run: a root ticker of the given
// period over lanes, the RunUntil horizons it is driven to in turn, and
// the timers and driver actions around it.
type skipSchedule struct {
	period   uint8 // index into skipPeriods
	lanes    uint8 // 1..3
	horizons []uint8
	ops      []skipOp
}

// skipOp is one timer or driver action. where picks the context: root,
// one of the lanes, or the driver between two RunUntil calls. at names
// a time relative to the ticker's own instants (see skipSchedule.time);
// act and arg say what the callback does.
type skipOp struct {
	before bool // created before the ticker, so it wins a first-tick tie
	where  uint8
	at     uint8
	act    uint8
	arg    uint8
}

// whereRoot is skipOp.where for a root timer; lanes are 1..lanes and
// lanes+1 is the driver.
const whereRoot = 0

// encode renders s in the fuzz target's byte format: period, lanes,
// horizon count, the horizons, then four bytes per op.
func (s skipSchedule) encode() []byte {
	b := []byte{s.period, s.lanes - 1, uint8(len(s.horizons) - 1)}
	b = append(b, s.horizons...)
	for _, op := range s.ops {
		w := op.where
		if op.before {
			w |= 0x80
		}
		b = append(b, w, op.at, op.act, op.arg)
	}
	return b
}

// decodeSkipSchedule reads the fuzz target's byte format; any input
// decodes to some schedule.
func decodeSkipSchedule(b []byte) skipSchedule {
	next := func() uint8 {
		if len(b) == 0 {
			return 0
		}
		v := b[0]
		b = b[1:]
		return v
	}
	s := skipSchedule{period: next() % uint8(len(skipPeriods)), lanes: 1 + next()%3}
	for n := 1 + int(next()%4); n > 0; n-- {
		s.horizons = append(s.horizons, next())
	}
	for len(b) >= 4 && len(s.ops) < 48 {
		w := next()
		s.ops = append(s.ops, skipOp{
			before: w&0x80 != 0,
			where:  (w & 0x7f) % (s.lanes + 2),
			at:     next(),
			act:    next(),
			arg:    next(),
		})
	}
	return s
}

// ticks returns the ticker's instants computed as the ticker computes
// them: the first one period after 0, each next one the float sum of
// the last and the period.
func (s skipSchedule) ticks() []float64 {
	p := skipPeriods[s.period]
	out := make([]float64, skipTicks+1)
	for k := 1; k <= skipTicks; k++ {
		out[k] = out[k-1] + p
	}
	return out
}

// time decodes v: the low five bits name tick instant 1..32, the next
// two bits place the time exactly on it (two of four codes), half a
// period before it, or a third of a period after it.
func (s skipSchedule) time(v uint8) float64 {
	t := s.ticks()[1+int(v%skipTicks)]
	p := skipPeriods[s.period]
	switch (v / skipTicks) % 4 {
	case 2:
		return t - p/2
	case 3:
		return t + p/3
	}
	return t
}

// delay decodes a re-arm delay from arg: 0 to 3.5 periods in half
// periods, so a timer armed at a tick instant one period ahead lands
// exactly on the next tick.
func (s skipSchedule) delay(arg uint8) float64 {
	return float64(arg/4%8) * skipPeriods[s.period] / 2
}

// skipEntry is one logged callback: when it ran, which callback it
// was, and what it saw of the other side, root or lanes.
type skipEntry struct {
	T    float64
	ID   int
	Seen uint64
}

// skipResult is everything a run exposes.
type skipResult struct {
	Root     []skipEntry
	Lanes    [][]skipEntry
	Executed uint64
	Now      float64
	Pending  int
}

// runSkipSchedule runs s and records every callback. The ticker drains
// the lane mailboxes and logs what it drained; it does nothing when
// they are empty, which is exactly when its idle predicate holds. Root
// callbacks log the executed count so far (lane events included); lane
// callbacks log how many root callbacks have run, which pins where each
// lane event falls relative to the root's events.
func runSkipSchedule(t *testing.T, s skipSchedule, skip bool) skipResult {
	t.Helper()
	sim := New(1)
	n := int(s.lanes)
	lanes := make([]*Sim, n)
	for i := range lanes {
		lanes[i] = sim.Lane(fmt.Sprintf("l%d", i))
	}
	mail := make([]int, n)
	res := skipResult{Lanes: make([][]skipEntry, n)}
	rootFired := uint64(0)
	logRoot := func(id int) {
		rootFired++
		res.Root = append(res.Root, skipEntry{T: sim.Now(), ID: id, Seen: sim.Executed()})
	}
	idle := func() bool {
		for _, m := range mail {
			if m > 0 {
				return false
			}
		}
		return true
	}
	var tk *Ticker
	tick := func() {
		if idle() {
			return
		}
		total := 0
		for i := range mail {
			total += mail[i]
			mail[i] = 0
		}
		logRoot(-1000 - total)
	}
	mustAt := func(on *Sim, at float64, fn func()) {
		if _, err := on.At(at, fn); err != nil {
			t.Fatal(err)
		}
	}
	laneFn := func(l, id int, op skipOp) func() {
		ln := lanes[l]
		return func() {
			res.Lanes[l] = append(res.Lanes[l], skipEntry{T: ln.Now(), ID: id, Seen: rootFired})
			switch op.act % 3 {
			case 1:
				mail[l]++
			case 2:
				ln.MustAfter(s.delay(op.arg), func() {
					res.Lanes[l] = append(res.Lanes[l], skipEntry{T: ln.Now(), ID: -id, Seen: rootFired})
				})
			}
		}
	}
	// driverAct is what root context can do to the world: fill a
	// mailbox, arm a lane timer, or arm a root timer.
	driverAct := func(id int, act, arg uint8) {
		switch act % 3 {
		case 0:
			mail[int(arg)%n]++
		case 1:
			mustAt(lanes[int(arg)%n], sim.Now()+s.delay(arg), laneFn(int(arg)%n, -id, skipOp{}))
		case 2:
			mustAt(sim, sim.Now()+s.delay(arg), func() { logRoot(-id) })
		}
	}
	rootFn := func(id int, op skipOp) func() {
		return func() {
			logRoot(id)
			switch op.act % 5 {
			case 1, 2, 3:
				driverAct(id, op.act%5-1, op.arg)
			case 4:
				tk.Stop()
			}
		}
	}
	schedule := func(before bool) {
		for i, op := range s.ops {
			if op.before != before {
				continue
			}
			id := i + 1
			switch {
			case op.where == whereRoot:
				mustAt(sim, s.time(op.at), rootFn(id, op))
			case int(op.where) <= n:
				l := int(op.where) - 1
				mustAt(lanes[l], s.time(op.at), laneFn(l, id, op))
			}
		}
	}
	schedule(true)
	var err error
	if tk, err = sim.Every(skipPeriods[s.period], tick); err != nil {
		t.Fatal(err)
	}
	if skip {
		tk.SkipWhile(idle)
	}
	schedule(false)
	for call, h := range s.horizons {
		if err := sim.RunUntil(s.time(h)); err != nil {
			t.Fatal(err)
		}
		for i, op := range s.ops {
			if int(op.where) == n+1 && int(op.at)%len(s.horizons) == call {
				driverAct(i+1, op.act, op.arg)
			}
		}
	}
	res.Executed, res.Now, res.Pending = sim.Executed(), sim.Now(), sim.Pending()
	return res
}

// checkSkipEquivalent runs s without the skip, again without it and
// then with it, and requires identical results.
func checkSkipEquivalent(t *testing.T, s skipSchedule) {
	t.Helper()
	want := runSkipSchedule(t, s, false)
	for _, skip := range []bool{false, true} {
		if got := runSkipSchedule(t, s, skip); !reflect.DeepEqual(got, want) {
			t.Fatalf("skip=%v diverges from the unskipped run:\n got %+v\nwant %+v", skip, got, want)
		}
	}
}

// at encodes tick instant k (1..32) exactly, or shifted by half a
// period before it (off < 0) or a third of one after it (off > 0).
func at(k int, off int) uint8 {
	mode := 0
	switch {
	case off < 0:
		mode = 2
	case off > 0:
		mode = 3
	}
	return uint8(mode*skipTicks + (k-1)%skipTicks)
}

// Acts, by context.
const (
	rootLog, rootFill, rootArmLane, rootArmRoot, rootStop = 0, 1, 2, 3, 4
	laneLog, laneFill, laneArm                            = 0, 1, 2
	driverFill, driverArmLane, driverArmRoot              = 0, 1, 2
)

// oneTick is the delay argument for exactly one period.
const oneTick = 2 * 4

// skipEdgeCases are the named schedules the fuzz corpus starts from.
var skipEdgeCases = []struct {
	name string
	s    skipSchedule
}{
	{"root timer at a tick instant", skipSchedule{period: 0, lanes: 2, horizons: []uint8{at(24, 0)}, ops: []skipOp{
		{where: 1, at: at(20, 0), act: laneLog},
		{where: whereRoot, at: at(5, 0), act: rootFill},
		{before: true, where: whereRoot, at: at(1, 0), act: rootFill},
		{where: whereRoot, at: at(9, 0), act: rootArmRoot, arg: oneTick},
		{where: whereRoot, at: at(12, 0), act: rootArmLane, arg: oneTick + 1},
	}}},
	{"lane event at a tick instant", skipSchedule{period: 0, lanes: 3, horizons: []uint8{at(20, 0)}, ops: []skipOp{
		{where: 1, at: at(7, 0), act: laneFill},
		{where: 2, at: at(7, 0), act: laneLog},
		{where: 3, at: at(11, 0), act: laneArm, arg: oneTick},
		{where: 3, at: at(15, -1), act: laneFill},
	}}},
	{"horizon exactly on a tick", skipSchedule{period: 0, lanes: 1, horizons: []uint8{at(12, 0)}, ops: []skipOp{
		{where: 1, at: at(3, 0), act: laneLog},
		{where: whereRoot, at: at(12, 0), act: rootFill},
		{where: 1, at: at(12, 0), act: laneFill},
		{where: whereRoot, at: at(13, 0), act: rootLog},
	}}},
	{"RunUntil called repeatedly", skipSchedule{period: 2, lanes: 2, horizons: []uint8{at(3, 0), at(3, 1), at(9, 0), at(30, 0)}, ops: []skipOp{
		{where: 3, at: 0, act: driverFill},
		{where: 3, at: 1, act: driverArmLane, arg: oneTick + 1},
		{where: 3, at: 2, act: driverArmRoot, arg: oneTick},
		{where: 2, at: at(20, 0), act: laneLog},
		{where: 3, at: 3, act: driverFill, arg: 1},
	}}},
	{"ticker stopped by a root event", skipSchedule{period: 1, lanes: 2, horizons: []uint8{at(30, 0)}, ops: []skipOp{
		{where: 1, at: at(4, 0), act: laneFill},
		{where: whereRoot, at: at(6, 1), act: rootStop},
		{where: 2, at: at(10, 0), act: laneFill},
		{where: whereRoot, at: at(20, 0), act: rootLog},
	}}},
}

// TestTickerSkipEdgeCases runs each named schedule through the
// equivalence check, and each must round-trip through the byte format
// the fuzz target decodes.
func TestTickerSkipEdgeCases(t *testing.T) {
	for _, tc := range skipEdgeCases {
		t.Run(tc.name, func(t *testing.T) {
			if got := decodeSkipSchedule(tc.s.encode()); !reflect.DeepEqual(got, tc.s) {
				t.Fatalf("byte format round trip: got %+v, want %+v", got, tc.s)
			}
			checkSkipEquivalent(t, tc.s)
		})
	}
}

// FuzzTickerSkip checks that skipping a ticker's idle ticks never
// changes what a run exposes, for any mix of root timers, lane timers
// (some armed from root context), periods, horizons, repeated RunUntil
// calls and a ticker stopped mid-run.
func FuzzTickerSkip(f *testing.F) {
	for _, tc := range skipEdgeCases {
		f.Add(tc.s.encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSkipEquivalent(t, decodeSkipSchedule(data))
	})
}

// TestSkipWhileSkipsIdleTicks pins that the hook does skip: an always
// idle ticker's callback never runs on a root with lanes, yet every
// tick counts in Executed and the clock ends where the unskipped run's
// does. A lane ticker cannot be skipped.
func TestSkipWhileSkipsIdleTicks(t *testing.T) {
	run := func(skip bool) (calls int, executed uint64, now float64) {
		s := New(1)
		for i := 0; i < 2; i++ {
			s.Lane(fmt.Sprintf("l%d", i)).MustAfter(0.75, func() {})
		}
		tk, err := s.Every(0.005, func() { calls++ })
		if err != nil {
			t.Fatal(err)
		}
		if skip {
			tk.SkipWhile(func() bool { return true })
		}
		if err := s.RunUntil(1); err != nil {
			t.Fatal(err)
		}
		return calls, s.Executed(), s.Now()
	}
	calls, executed, now := run(false)
	skipped, executedSkip, nowSkip := run(true)
	if skipped != 0 || executedSkip != executed || nowSkip != now {
		t.Fatalf("skip ran %d callbacks (want 0), executed %d/%d, now %v/%v",
			skipped, executedSkip, executed, nowSkip, now)
	}
	if calls < 190 {
		t.Fatalf("unskipped run ticked %d times, want about 200", calls)
	}

	s := New(1)
	tk, err := s.Lane("l").Every(1, func() {})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SkipWhile on a lane ticker did not panic")
		}
	}()
	tk.SkipWhile(func() bool { return true })
}
