package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRunOrdersEventsByTime(t *testing.T) {
	s := New(1)
	var order []int
	for i, at := range []float64{3, 1, 2} {
		i := i
		if _, err := s.At(at, func() { order = append(order, i) }); err != nil {
			t.Fatalf("At: %v", err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameTimeEventsFireInScheduleOrder(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if _, err := s.At(5, func() { order = append(order, i) }); err != nil {
			t.Fatalf("At: %v", err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("order[%d] = %d, want %d", i, got, i)
		}
	}
}

func TestSchedulingInPastFails(t *testing.T) {
	s := New(1)
	s.MustAfter(10, func() {})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, err := s.At(5, func() {}); err == nil {
		t.Fatal("At in the past succeeded, want error")
	}
}

func TestAtRejectsBadInputs(t *testing.T) {
	s := New(1)
	if _, err := s.At(math.NaN(), func() {}); err == nil {
		t.Error("At(NaN) succeeded, want error")
	}
	if _, err := s.At(math.Inf(1), func() {}); err == nil {
		t.Error("At(+Inf) succeeded, want error")
	}
	if _, err := s.At(1, nil); err == nil {
		t.Error("At(nil fn) succeeded, want error")
	}
}

func TestAfterClampsNegativeDelay(t *testing.T) {
	s := New(1)
	fired := false
	if _, err := s.After(-5, func() { fired = true }); err != nil {
		t.Fatalf("After: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Error("negative-delay event never fired")
	}
	if s.Now() != 0 {
		t.Errorf("Now = %v, want 0", s.Now())
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	s := New(1)
	fired := false
	tm := s.MustAfter(1, func() { fired = true })
	if !tm.Cancel() {
		t.Fatal("Cancel returned false on pending timer")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Error("cancelled timer fired")
	}
}

func TestRunUntilAdvancesClockToHorizon(t *testing.T) {
	s := New(1)
	s.MustAfter(100, func() {})
	if err := s.RunUntil(50); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if s.Now() != 50 {
		t.Errorf("Now = %v, want 50", s.Now())
	}
	if got := s.Pending(); got != 1 {
		t.Errorf("Pending = %d, want 1", got)
	}
	if err := s.RunUntil(200); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if s.Now() != 200 {
		t.Errorf("Now = %v, want 200", s.Now())
	}
}

func TestEventsCanScheduleMoreEvents(t *testing.T) {
	s := New(1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			s.MustAfter(0.5, recurse)
		}
	}
	s.MustAfter(0.5, recurse)
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if depth != 100 {
		t.Errorf("depth = %d, want 100", depth)
	}
	if math.Abs(s.Now()-50) > 1e-9 {
		t.Errorf("Now = %v, want 50", s.Now())
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	s := New(1)
	var fires []float64
	tk, err := s.Every(2, func() { fires = append(fires, s.Now()) })
	if err != nil {
		t.Fatalf("Every: %v", err)
	}
	if err := s.RunUntil(9); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	tk.Stop()
	if err := s.RunUntil(100); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	want := []float64{2, 4, 6, 8}
	if len(fires) != len(want) {
		t.Fatalf("fires = %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	}
}

func TestTickerStopFromWithinCallback(t *testing.T) {
	s := New(1)
	n := 0
	var tk *Ticker
	tk, err := s.Every(1, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	if err != nil {
		t.Fatalf("Every: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 3 {
		t.Errorf("ticks = %d, want 3", n)
	}
}

// TestTickerTickAllocatesNothing: a ticker re-arms the timer that just
// fired in place, so a steady tick allocates nothing.
func TestTickerTickAllocatesNothing(t *testing.T) {
	s := New(1)
	ticks := 0
	if _, err := s.Every(1, func() { ticks++ }); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.RunUntil(s.Now() + 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a tick allocates %v times, want 0", allocs)
	}
	if ticks != 101 {
		t.Fatalf("ticks = %d, want 101 (one warm-up run and 100 measured)", ticks)
	}
}

func TestEveryRejectsBadPeriod(t *testing.T) {
	s := New(1)
	for _, period := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := s.Every(period, func() {}); err == nil {
			t.Errorf("Every(%v) succeeded, want error", period)
		}
	}
	if _, err := s.Every(1, nil); err == nil {
		t.Error("Every(nil fn) succeeded, want error")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []float64 {
		s := New(42)
		var times []float64
		var spawn func()
		spawn = func() {
			times = append(times, s.Now())
			if len(times) < 50 {
				s.MustAfter(s.Rand().Float64(), spawn)
			}
		}
		s.MustAfter(0, spawn)
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any set of non-negative delays, Run visits events in
// non-decreasing time order and ends with the clock at the max delay.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		s := New(7)
		var visited []float64
		maxAt := 0.0
		for _, r := range raw {
			at := float64(r) / 16.0
			if at > maxAt {
				maxAt = at
			}
			s.MustAfter(at, func() { visited = append(visited, s.Now()) })
		}
		if err := s.Run(); err != nil {
			return false
		}
		if len(visited) != len(raw) {
			return false
		}
		for i := 1; i < len(visited); i++ {
			if visited[i] < visited[i-1] {
				return false
			}
		}
		return s.Now() == maxAt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: cancelling an arbitrary subset of timers fires exactly the
// complement.
func TestPropertyCancellation(t *testing.T) {
	f := func(delays []uint8, cancelMask []bool) bool {
		s := New(3)
		fired := make(map[int]bool)
		timers := make([]*Timer, len(delays))
		for i, d := range delays {
			i := i
			timers[i] = s.MustAfter(float64(d), func() { fired[i] = true })
		}
		wantFired := make(map[int]bool)
		for i := range timers {
			if i < len(cancelMask) && cancelMask[i] {
				timers[i].Cancel()
			} else {
				wantFired[i] = true
			}
		}
		if err := s.Run(); err != nil {
			return false
		}
		if len(fired) != len(wantFired) {
			return false
		}
		for i := range wantFired {
			if !fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
