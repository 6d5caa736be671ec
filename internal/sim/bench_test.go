package sim

import (
	"fmt"
	"math/rand"
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
// count; it is a counter the queue keeps, so the cost does not grow
// with it.
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
// so: almost every quantum has no lane event beside it and must cost
// almost nothing. One op is one quantum.
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

// BenchmarkNewRand measures building one generator, as every stream
// (each node's, each trace's) pays once, beside math/rand's building of
// the same state. The reseed cases seed an existing generator, which
// leaves out the allocation and the garbage collection both sides pay.
func BenchmarkNewRand(b *testing.B) {
	b.Run("sim", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			randSink = NewRand(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mathRandSink = rand.New(rand.NewSource(int64(i)))
		}
	})
	b.Run("sim-reseed", func(b *testing.B) {
		r := NewRand(0)
		for i := 0; i < b.N; i++ {
			r.setSeed(int64(i))
		}
		randSink = r
	})
	b.Run("math-rand-reseed", func(b *testing.B) {
		src := rand.NewSource(0)
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
		mathRandSink = rand.New(src)
	})
}

// BenchmarkThinningDraws measures one candidate of trace.Stream's
// thinning loop: an exponential gap and two uniforms, beside the same
// draws through math/rand's Source interface.
func BenchmarkThinningDraws(b *testing.B) {
	const rate = 3000.0
	b.Run("sim", func(b *testing.B) {
		r := NewRand(1)
		t := 0.0
		for i := 0; i < b.N; i++ {
			t += r.ExpFloat64()/rate + r.Float64() + r.Float64()
		}
		floatSink = t
	})
	b.Run("math-rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		t := 0.0
		for i := 0; i < b.N; i++ {
			t += r.ExpFloat64()/rate + r.Float64() + r.Float64()
		}
		floatSink = t
	})
}

var (
	randSink     *Rand
	mathRandSink *rand.Rand
	floatSink    float64
)
