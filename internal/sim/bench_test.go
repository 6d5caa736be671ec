package sim

import (
	"fmt"
	"testing"
)

// nop is the timer payload for heap benchmarks.
func nop() {}

// benchSim returns a simulator pre-loaded with n live timers spread over
// distinct future instants.
func benchSim(n int) (*Sim, []*Timer) {
	s := New(1)
	timers := make([]*Timer, n)
	for i := range timers {
		timers[i] = s.MustAfter(1+float64(i), nop)
	}
	return s, timers
}

// BenchmarkTimerCancelPush measures the cancel-and-reallocate pattern
// that Reschedule replaces: cancel a live timer and push a freshly
// allocated replacement. Cancel removes the heap entry at once, so the
// heap stays at the live count.
func BenchmarkTimerCancelPush(b *testing.B) {
	const live = 64
	s, timers := benchSim(live)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % live
		timers[k].Cancel()
		timers[k] = s.MustAfter(1+float64(k), nop)
	}
}

// BenchmarkTimerReschedule measures the in-place replacement for the
// cancel+push pattern: the same Timer is moved to a new instant within
// the heap, so no allocation happens per move.
func BenchmarkTimerReschedule(b *testing.B) {
	const live = 64
	s, timers := benchSim(live)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % live
		if err := timers[k].Reschedule(1 + float64(k)); err != nil {
			b.Fatalf("Reschedule: %v", err)
		}
	}
	_ = s
}

// BenchmarkPending measures Sim.Pending at a large outstanding-timer
// count; it is the queue's length, so the cost does not grow with it.
func BenchmarkPending(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprintf("timers=%d", n), func(b *testing.B) {
			s, _ := benchSim(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := s.Pending(); got != n {
					b.Fatalf("Pending = %d, want %d", got, n)
				}
			}
		})
	}
}

// BenchmarkIdleBarrier measures one root dispatch quantum (a 5 ms
// ticker) over 9 lanes that each have an event only every second or
// so: almost every barrier finds no lane work and must cost almost
// nothing. One op is one quantum.
func BenchmarkIdleBarrier(b *testing.B) {
	s := New(1)
	for i := 0; i < 9; i++ {
		if _, err := s.Lane(fmt.Sprintf("node/%d", i)).Every(1+0.1*float64(i), nop); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := s.Every(0.005, nop); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.RunUntil(0.005 * float64(b.N)); err != nil {
		b.Fatal(err)
	}
}
