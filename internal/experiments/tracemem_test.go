package experiments

import (
	"io"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync/atomic"
	"testing"
	"time"

	"protean/internal/obs"
)

// peakHeapGoal runs fn and returns the largest heap goal
// (runtime/metrics /gc/heap/goal:bytes) the collector set meanwhile,
// sampled every millisecond: the heap grows to its goal before each
// collection, so the goal is its peak size. A collection first drops
// what earlier work left.
func peakHeapGoal(fn func()) uint64 {
	runtime.GC()
	var peak atomic.Uint64
	sample := func() {
		s := []rtmetrics.Sample{{Name: "/gc/heap/goal:bytes"}}
		rtmetrics.Read(s)
		for v, cur := s[0].Value.Uint64(), peak.Load(); v > cur && !peak.CompareAndSwap(cur, v); cur = peak.Load() {
		}
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	sample()
	fn()
	sample()
	close(stop)
	<-done
	return peak.Load()
}

// tracedHeapBound is how far a traced quick market run's peak heap may
// rise above the untraced run's. The trace holds one event per batch or
// decision, never one per request, and the JSONL export streams, so the
// traced run adds its events and nothing per request. On a 2-vCPU x86-64
// VM (go1.24.0, seed 1) the untraced run's heap goal peaks at 20–24 MB
// and the traced run's at 120–159 MB: 5.8–7.4× over twelve runs, with and
// without the race detector and at GOMAXPROCS 1 and 2. The bound leaves
// about 35% for where collections happen to land. A trace that again
// held per-request arrivals, 95% of the events the run once traced,
// would multiply the traced heap by about 19 and break the bound many
// times over.
const tracedHeapBound = 10

// TestTracedMarketHeapBounded runs the quick market experiment untraced
// and then traced with a streamed JSONL export, and bounds the traced
// run's peak heap at tracedHeapBound times the untraced run's.
func TestTracedMarketHeapBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick market experiment twice; skipped in -short")
	}
	p := Params{Quick: true, Seed: 1, Parallel: 1}
	untraced := peakHeapGoal(func() { renderText(t, "market", p) })
	traced := peakHeapGoal(func() {
		tp := p
		tp.Trace = obs.NewTraceSet()
		renderText(t, "market", tp)
		if err := obs.WriteJSONL(io.Discard, tp.Trace.Traces()); err != nil {
			t.Fatal(err)
		}
	})
	const mb = 1 << 20
	t.Logf("peak heap: untraced %d MB, traced %d MB (%.2f×)", untraced/mb, traced/mb, float64(traced)/float64(untraced))
	if traced > tracedHeapBound*untraced {
		t.Fatalf("traced market run peaks at %d MB, over %d× the untraced run's %d MB",
			traced/mb, tracedHeapBound, untraced/mb)
	}
}
