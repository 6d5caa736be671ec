package sim

// Tests of lanes and the event loop around them: the RunUntil clock
// clamp, Reschedule of a cancelled timer, Ticker.Stop teardown, lane
// ordering and the one shared clock, the shared random stream, and the
// Child stream-derivation contract.

import (
	"fmt"
	"testing"

	"protean/internal/obs"
)

// TestRunUntilNeverRewindsClock covers both exits of the event loop: a
// horizon in the past must leave the clock untouched whether the next
// event sits beyond the horizon (queue-nonempty path) or the queue has
// drained (queue-empty path). Before the fix, the queue-nonempty exit
// set s.now = horizon unconditionally, rewinding virtual time.
func TestRunUntilNeverRewindsClock(t *testing.T) {
	s := New(1)
	if _, err := s.At(10, func() {}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.At(20, func() {}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 10 {
		t.Fatalf("clock = %v after RunUntil(10), want 10", s.Now())
	}

	// Queue-nonempty path: the event at 20 is still pending.
	if err := s.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 10 {
		t.Fatalf("clock rewound to %v by RunUntil(5) with a pending event, want 10", s.Now())
	}

	// Queue-empty path: drain, then ask for a past horizon again.
	if err := s.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 0 || s.Now() != 20 {
		t.Fatalf("after drain: pending=%d now=%v, want 0 and 20", s.Pending(), s.Now())
	}
	if err := s.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 20 {
		t.Fatalf("clock rewound to %v by RunUntil(5) on an empty queue, want 20", s.Now())
	}
}

// TestRescheduleCancelledTimerCountsOnce: Cancel takes the timer out of
// the heap at once, and re-arming it through the index == -1 branch of
// Reschedule adds it back exactly once; moving it again while queued
// must not add it twice. The timer then fires exactly once.
func TestRescheduleCancelledTimerCountsOnce(t *testing.T) {
	s := New(1)
	for i := 0; i < 64; i++ {
		if _, err := s.At(float64(i+1), func() {}); err != nil {
			t.Fatal(err)
		}
	}
	fired := 0
	victim := s.MustAfter(100, func() { fired++ })
	if !victim.Cancel() {
		t.Fatal("Cancel of a pending timer reported false")
	}
	if victim.index != -1 || s.Pending() != 64 {
		t.Fatalf("cancelled timer left in the heap: index %d, Pending %d", victim.index, s.Pending())
	}
	if victim.Cancel() {
		t.Fatal("second Cancel reported true")
	}
	if err := victim.Reschedule(0.5); err != nil {
		t.Fatal(err)
	}
	if got := s.Pending(); got != 65 {
		t.Fatalf("Pending = %d after re-arming a cancelled timer, want 65", got)
	}
	if !victim.Active() {
		t.Fatal("rescheduled timer is not active")
	}
	if err := victim.Reschedule(0.6); err != nil {
		t.Fatal(err)
	}
	if got := s.Pending(); got != 65 {
		t.Fatalf("Pending = %d after a second Reschedule, want 65 (no double count)", got)
	}
	if err := s.RunUntil(0.6); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("rescheduled timer fired %d times, want 1", fired)
	}
}

// TestTickerStopReleasesReferences pins that Stop drops the ticker's
// self-referential closure, timer and SkipWhile registration so a
// stopped ticker holds nothing alive, and that no further tick runs.
func TestTickerStopReleasesReferences(t *testing.T) {
	s := New(1)
	ticks := 0
	tk, err := s.Every(1, func() { ticks++ })
	if err != nil {
		t.Fatal(err)
	}
	tk.SkipWhile(func() bool { return false })
	if err := s.RunUntil(2.5); err != nil {
		t.Fatal(err)
	}
	if ticks != 2 {
		t.Fatalf("ticks = %d before Stop, want 2", ticks)
	}
	tk.Stop()
	if tk.timer != nil || tk.fireNext != nil || tk.idle != nil || len(s.skippers) != 0 {
		t.Fatal("Stop left timer/fireNext/idle references or a SkipWhile registration behind")
	}
	tk.Stop() // idempotent on a torn-down ticker
	if err := s.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if ticks != 2 {
		t.Fatalf("stopped ticker ticked again: %d ticks, want 2", ticks)
	}
}

// TestTickerStopRacesPendingFireAtSameInstant: a Stop that runs at the
// exact virtual instant a tick is already pending (the stopping event
// was scheduled first, so it wins the tie-break) must keep that tick
// from firing — Cancel takes the pending tick out of the queue.
func TestTickerStopRacesPendingFireAtSameInstant(t *testing.T) {
	s := New(1)
	ticks := 0
	var tk *Ticker
	// Scheduled before Every, so at t=1 this runs ahead of the pending
	// first fire scheduled for the same instant.
	if _, err := s.At(1, func() { tk.Stop() }); err != nil {
		t.Fatal(err)
	}
	var err error
	tk, err = s.Every(1, func() { ticks++ })
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 0 {
		t.Fatalf("tick fired %d times after a same-instant Stop, want 0", ticks)
	}
	if s.Pending() != 0 {
		t.Fatalf("%d events still pending after Stop", s.Pending())
	}
}

// TestChildStreamsStableAndIndependent pins the derivation contract
// subsystems rely on: a child's sequence depends only on (parent seed,
// label) — not on parent draws or sibling derivations — and distinct
// labels yield distinct streams.
func TestChildStreamsStableAndIndependent(t *testing.T) {
	draw := func(st *Stream) [4]float64 {
		var v [4]float64
		for i := range v {
			v[i] = st.Float64()
		}
		return v
	}

	pristine := draw(New(7).Rand().Child("vm/fleet"))

	// Parent draws and sibling children must not shift the sequence.
	s := New(7)
	s.Rand().Float64()
	s.Rand().Child("chaos")
	if got := draw(s.Rand().Child("vm/fleet")); got != pristine {
		t.Fatalf("child sequence shifted by parent activity: %v != %v", got, pristine)
	}

	if draw(New(7).Rand().Child("chaos")) == pristine {
		t.Fatal("distinct labels produced identical streams")
	}
	if draw(New(8).Rand().Child("vm/fleet")) == pristine {
		t.Fatal("distinct parent seeds produced identical child streams")
	}
	if got := New(7).Rand().Child("vm/fleet").seed; got != New(7).Rand().Child("vm/fleet").seed {
		t.Fatalf("child seed not stable: %d", got)
	}
}

// collectTracer records events in emission order.
type collectTracer struct{ events []obs.Event }

func (c *collectTracer) Enabled() bool     { return true }
func (c *collectTracer) Emit(ev obs.Event) { c.events = append(c.events, ev) }

// TestLaneSharesRootStream pins that a lane derives no stream of its
// own: Rand on a lane is the root's stream, so every subsystem's draws
// come from named children of the root however many lanes a run builds.
func TestLaneSharesRootStream(t *testing.T) {
	s := New(7)
	ln := s.Lane("node/0")
	if ln.Rand() != s.Rand() {
		t.Fatal("lane has its own random stream; want the root's")
	}
}

// TestLaneTraceRepeatableAndTimeOrdered runs the same lane workload
// twice and asserts identical traces, executed-event counts and clocks,
// and that the trace reads in time order. Lane events emit through the
// lane's Tracer, which is the root's.
func TestLaneTraceRepeatableAndTimeOrdered(t *testing.T) {
	run := func() ([]obs.Event, uint64, float64) {
		s := New(3)
		tr := &collectTracer{}
		s.SetTracer(tr)
		lanes := make([]*Sim, 4)
		for i := range lanes {
			ln := s.Lane(fmt.Sprintf("node/%d", i))
			lanes[i] = ln
			// Self-rescheduling lane work with jitter from the shared stream, plus a
			// trace event per firing.
			var step func()
			at := 0.1 * float64(i+1)
			step = func() {
				ev := obs.At(ln.Now(), obs.KindAdmit)
				ev.Node = i
				ln.Tracer().Emit(ev)
				at += 0.2 + 0.05*ln.Rand().Float64()
				if at < 10 {
					ln.MustAfter(at-ln.Now(), step)
				}
			}
			ln.MustAfter(at, step)
		}
		// Root events interleaved with the lane work.
		ticks := 0
		tick, err := s.Every(1, func() {
			ticks++
			ev := obs.At(s.Now(), obs.KindDispatch)
			s.Tracer().Emit(ev)
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunUntil(10); err != nil {
			t.Fatal(err)
		}
		tick.Stop()
		for _, ln := range lanes {
			if ln.Now() != 10 {
				t.Fatalf("lane.Now() = %v after RunUntil(10), want 10", ln.Now())
			}
		}
		return tr.events, s.Executed(), s.Now()
	}

	wantEvents, wantExec, wantNow := run()
	if len(wantEvents) == 0 || wantExec == 0 {
		t.Fatal("run produced no events; the workload is vacuous")
	}
	for i := 1; i < len(wantEvents); i++ {
		if wantEvents[i].T < wantEvents[i-1].T {
			t.Fatalf("trace event %d at %v follows one at %v: the trace is not in time order", i, wantEvents[i].T, wantEvents[i-1].T)
		}
	}
	events, exec, now := run()
	if exec != wantExec || now != wantNow {
		t.Fatalf("repeat: executed=%d now=%v, want %d and %v", exec, now, wantExec, wantNow)
	}
	if len(events) != len(wantEvents) {
		t.Fatalf("repeat: %d trace events, want %d", len(events), len(wantEvents))
	}
	for i := range events {
		if events[i] != wantEvents[i] {
			t.Fatalf("repeat: trace event %d = %+v, want %+v", i, events[i], wantEvents[i])
		}
	}
}

// TestLaneMisuseIsRejected pins the structural rules: lanes cannot be
// nested, and a lane cannot be driven directly — only through its root.
func TestLaneMisuseIsRejected(t *testing.T) {
	s := New(1)
	ln := s.Lane("node/0")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nested Lane did not panic")
			}
		}()
		ln.Lane("inner")
	}()
	if err := ln.RunUntil(1); err == nil {
		t.Error("RunUntil on a lane did not error")
	}
}

// TestRootArmsLaneTimerAtNow: a root event that arms a lane timer at
// root.Now() must see it fire before the next root event at that
// instant.
func TestRootArmsLaneTimerAtNow(t *testing.T) {
	s := New(1)
	ln := s.Lane("node/0")
	var order []string
	s.MustAfter(1, func() {
		order = append(order, "root@1")
		ln.MustAfter(0, func() { order = append(order, fmt.Sprintf("lane@%g", ln.Now())) })
	})
	s.MustAfter(1, func() { order = append(order, "root@1b") })
	s.MustAfter(2, func() { order = append(order, "root@2") })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[root@1 lane@1 root@1b root@2]" {
		t.Fatalf("order = %s, want [root@1 lane@1 root@1b root@2]", got)
	}
}

// TestLaneClockFollowsRootAfterSkippedPhase: after root events that an
// idle lane did not take part in, the lane reads the root's time in
// root context, and a lane timer armed there is relative to it.
func TestLaneClockFollowsRootAfterSkippedPhase(t *testing.T) {
	s := New(1)
	ln := s.Lane("node/0")
	ln.MustAfter(10, func() {})
	var laneAt float64
	for _, at := range []float64{1, 2} {
		s.MustAfter(at, func() {})
	}
	s.MustAfter(3, func() {
		if ln.Now() != s.Now() {
			t.Errorf("lane.Now() = %v in root context, want root.Now() = %v", ln.Now(), s.Now())
		}
		ln.MustAfter(1, func() { laneAt = ln.Now() })
	})
	if err := s.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if laneAt != 4 {
		t.Fatalf("lane timer armed at root time 3 with delay 1 fired at %v, want 4", laneAt)
	}
	if ln.Now() != 5 {
		t.Fatalf("lane.Now() = %v after RunUntil(5), want 5", ln.Now())
	}
}

// TestOneClockAfterDrain: the root and its lanes share one clock. A
// root-owned read made inside a lane event at 5 sees 5, and after Run
// drains the queue the root and both lanes read 9, the last event's
// time, although the root's own last event is at 3 and one lane's at
// 5.
func TestOneClockAfterDrain(t *testing.T) {
	s := New(1)
	a, b := s.Lane("node/0"), s.Lane("node/1")
	s.MustAfter(3, func() {})
	var rootAt5 float64
	a.MustAfter(5, func() { rootAt5 = s.Now() })
	b.MustAfter(9, func() {})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if rootAt5 != 5 {
		t.Fatalf("root read %v inside the lane event at 5, want 5", rootAt5)
	}
	if s.Now() != 9 || a.Now() != 9 || b.Now() != 9 {
		t.Fatalf("after drain: root %v, lanes %v and %v; want 9, 9 and 9", s.Now(), a.Now(), b.Now())
	}
}
