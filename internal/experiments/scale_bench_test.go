package experiments

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// peakHeap samples runtime.MemStats.HeapAlloc in the background and
// returns a stop function yielding the observed peak in bytes. Sampling
// at 25 ms catches the transient high-water mark that a single
// end-of-run ReadMemStats would miss after a GC cycle.
func peakHeap() (stop func() uint64) {
	done := make(chan struct{})
	out := make(chan uint64, 1)
	go func() {
		var ms runtime.MemStats
		var peak uint64
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
				out <- peak
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-out
	}
}

// benchScaleCell runs one scale-sweep cell per iteration over the full
// two-day horizon, reporting simulation events per wall-clock second
// and the peak heap the cell touched per scale; heapCeilingMB, when
// positive, fails the benchmark if the peak ever exceeds it (the 100×
// acceptance gate).
func benchScaleCell(b *testing.B, scale float64, heapCeilingMB int) {
	p := Params{Duration: ScaleHorizon, Nodes: 8, Seed: 1}
	var events uint64
	var peakMB float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stop := peakHeap()
		cell, err := ScaleCell(p, scale)
		peak := stop()
		if err != nil {
			b.Fatal(err)
		}
		events += cell.Events
		if mb := float64(peak) / (1 << 20); mb > peakMB {
			peakMB = mb
		}
		if heapCeilingMB > 0 && peak > uint64(heapCeilingMB)<<20 {
			b.Fatalf("peak heap %.0f MB exceeds the %d MB ceiling", float64(peak)/(1<<20), heapCeilingMB)
		}
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(peakMB, "peak-heap-MB")
}

// BenchmarkScaleCell sweeps the scale cells protean-bench's -run scale
// covers. The 100× cell (~6M offered requests over two days) is the
// pinned acceptance gate: it must complete under ScaleHeapCeilingMB,
// which streaming arrivals plus sketched recorders keep it well below —
// a materialised trace alone would blow past it.
func BenchmarkScaleCell(b *testing.B) {
	for _, scale := range []float64{10, 100} {
		ceiling := 0
		if scale == 100 {
			ceiling = ScaleHeapCeilingMB
		}
		b.Run(fmt.Sprintf("scale=%gx", scale), func(b *testing.B) {
			benchScaleCell(b, scale, ceiling)
		})
	}
}
