package gpu

import (
	"errors"
	"fmt"
	"testing"

	"protean/internal/pool"
	"protean/internal/sim"
)

// benchWorkloads builds n distinct workloads so the cached-invariant
// math sees a realistic spread of FBRs, compute demands and cache
// coefficients rather than n copies of one constant.
func benchWorkloads(n int) []*stubWorkload {
	ws := make([]*stubWorkload, n)
	for i := range ws {
		ws[i] = &stubWorkload{
			name:   fmt.Sprintf("w%d", i),
			solo7g: 1e9, // far longer than the benchmark: jobs never complete
			fbr:    0.2 + 0.1*float64(i%5),
			mem:    1,
			sens:   0.5,
			sm:     0.3 + 0.1*float64(i%4),
			poll:   0.1 * float64(i%3),
			csens:  0.2 * float64(i%2),
		}
	}
	return ws
}

// benchSlice returns a 7g MPS slice with n co-resident running jobs.
func benchSlice(n int) (*sim.Sim, *Slice) {
	s := sim.New(1)
	g, err := NewGPU(s, 0, ArchA100(), MustGeometry(Profile7g), ShareMPS)
	if err != nil {
		panic(err)
	}
	sl := g.slices[0]
	for i, w := range benchWorkloads(n) {
		j := &Job{W: w, Scale: 0.5 + 0.1*float64(i%5), SMFrac: 1}
		if err := sl.Submit(j); err != nil {
			panic(err)
		}
	}
	return s, sl
}

// BenchmarkRebalanceMPS measures the engine's hot path: one occupancy
// rebalance of an MPS slice at a given co-residency. This is the code
// that fires on every start and completion during a cluster run. The
// fixture is rebuilt every 1024 iterations so the pre-optimization
// engine (whose cancelled completion timers rot in the heap) is
// measured at a bounded, steady-state heap size — a conservative
// comparison.
func BenchmarkRebalanceMPS(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("jobs=%d", n), func(b *testing.B) {
			s, sl := benchSlice(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%1024 == 1023 {
					s, sl = benchSlice(n)
				}
				sl.rebalance(s.Now())
			}
		})
	}
}

// BenchmarkSlowdownFor isolates the per-job interference multiplier at
// 8 co-resident jobs — the inner O(n) term rebalance evaluates n times.
func BenchmarkSlowdownFor(b *testing.B) {
	_, sl := benchSlice(8)
	j := sl.running[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sl.slowdownFor(j)
	}
}

// submitComplete runs one pooled job through a full lifecycle on sl:
// take it from free, submit, start (one rebalance), run to completion
// (another rebalance) and put it back, as a cluster node does with
// every batch.
func submitComplete(s *sim.Sim, sl *Slice, free *pool.Free[Job], w Workload) error {
	j := free.Get()
	j.W, j.Enqueued = w, s.Now()
	if err := sl.Submit(j); err != nil {
		return err
	}
	if err := s.RunUntil(j.timer.At()); err != nil {
		return err
	}
	if !j.done {
		return errors.New("short job did not complete")
	}
	free.Put(j)
	return nil
}

// BenchmarkSubmitCompleteCycle measures a full job lifecycle against a
// background of co-resident long-running jobs — the engine work per
// batch during a saturated run. One pooled Job is reused through Reset.
func BenchmarkSubmitCompleteCycle(b *testing.B) {
	short := &stubWorkload{name: "short", solo7g: 1e-6, fbr: 0.3, mem: 1, sm: 0.2}
	s, sl := benchSlice(7)
	free := pool.Free[Job]{Reset: (*Job).Reset}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 1023 {
			s, sl = benchSlice(7)
		}
		if err := submitComplete(s, sl, &free, short); err != nil {
			b.Fatal(err)
		}
	}
}
