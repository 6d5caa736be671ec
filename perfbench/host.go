package main

import (
	"os"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sync/atomic"
	"time"
)

const mib = 1 << 20

// heapPeak tracks each pass's peak heap size: the largest heap goal
// (runtime/metrics /gc/heap/goal:bytes) the collector sets during the
// pass. The heap grows to its goal before each collection, so the goal
// is the heap's peak size — twice the live heap at the default GOGC,
// and never below the runtime's 4 MB minimum — and it holds until the
// next collection, so a 10 ms sampler sees it. A pass's peak depends on
// where its collections happened to land: on vision-gateway the passes
// of one run fall on several levels between 270 and 400 MB, and which
// level holds the median changes from run to run. The mean over passes
// averages the levels and repeats within a few percent.
type heapPeak struct {
	max   atomic.Uint64
	stop  chan struct{}
	done  chan struct{}
	peaks []float64 // MiB, one per pass
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapPeak) sample() {
	s := []rtmetrics.Sample{{Name: "/gc/heap/goal:bytes"}}
	rtmetrics.Read(s)
	v := s[0].Value.Uint64()
	for cur := h.max.Load(); v > cur && !h.max.CompareAndSwap(cur, v); cur = h.max.Load() {
	}
}

// beginPass and endPass bracket one pass; a nil heapPeak ignores them.
func (h *heapPeak) beginPass() {
	if h != nil {
		h.max.Store(0)
		h.sample()
	}
}

func (h *heapPeak) endPass() {
	if h != nil {
		h.sample()
		h.peaks = append(h.peaks, float64(h.max.Load())/mib)
	}
}

// finish stops the sampler and returns the mean per-pass peak in MiB.
func (h *heapPeak) finish() float64 {
	close(h.stop)
	<-h.done
	sum := 0.0
	for _, p := range h.peaks {
		sum += p
	}
	return sum / float64(len(h.peaks))
}

// runtimeCounters are cumulative runtime/metrics counters; the
// difference of two readings covers the work between them.
type runtimeCounters struct {
	gcCPU, totalCPU, allocBytes, gcCycles float64
}

func readRuntimeCounters() runtimeCounters {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	rtmetrics.Read(s)
	return runtimeCounters{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocBytes: float64(s[2].Value.Uint64()),
		gcCycles:   float64(s[3].Value.Uint64()),
	}
}

// plainPhase runs untraced passes for budget seconds under the CPU
// profile at profilePath, and records the runtime's GC share and
// per-pass allocation over them.
func (r *runner) plainPhase(profilePath string, budget float64, pass func() error) error {
	f, err := os.Create(profilePath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close() // the profile never started; its error is the one to report
		return err
	}
	before := readRuntimeCounters()
	n := r.loop(budget, pass)
	after := readRuntimeCounters()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		r.res.layers["runtime.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / cpu
	}
	r.res.layers["runtime.alloc_mb_per_run"] = (after.allocBytes - before.allocBytes) / mib / float64(n)
	// Not counting the collection loop forces before each pass.
	r.res.layers["runtime.gc_cycles_per_run"] = (after.gcCycles-before.gcCycles)/float64(n) - 1
	return nil
}
