package gpu

import (
	"testing"

	"protean/internal/sim"
)

// stuckFaults scripts the ReconfigFaults hook with fixed answers.
type stuckFaults struct {
	stretch float64
	abort   bool
	calls   int
}

func (f *stuckFaults) SampleReconfig(int) (float64, bool) {
	f.calls++
	return f.stretch, f.abort
}

func TestFailSliceKillsRunningAndDisplacesPending(t *testing.T) {
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareTimeSlice)
	w := &stubWorkload{name: "w", solo7g: 10, fbr: 0.5, mem: 5}
	running := &Job{W: w}
	queued := &Job{W: w}
	var failed []*Job
	for _, j := range []*Job{running, queued} {
		j.OnFail = func(j *Job) { failed = append(failed, j) }
		j.OnDone = func(*Job) { t.Error("OnDone fired for a killed job") }
		if err := g.Slices()[0].Submit(j); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if _, err := s.At(1, func() {
		killed, displaced := g.FailSlice(0.5, 15)
		if len(killed) != 1 || killed[0] != running {
			t.Errorf("killed = %v, want [running job]", killed)
		}
		if len(displaced) != 1 || displaced[0] != queued {
			t.Errorf("displaced = %v, want [queued job]", displaced)
		}
		for _, j := range append(killed, displaced...) {
			j.OnFail(j)
		}
	}); err != nil {
		t.Fatalf("At: %v", err)
	}
	if err := s.RunUntil(5); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(failed) != 2 {
		t.Fatalf("OnFail fired %d times, want 2", len(failed))
	}
	sl := g.Slices()[0]
	if !sl.Failed() {
		t.Error("slice not marked failed")
	}
	if sl.usedMem != 0 || sl.Load() != 0 {
		t.Errorf("failed slice not emptied: mem %v, load %d", sl.usedMem, sl.Load())
	}
	if err := sl.Submit(&Job{W: w}); err == nil {
		t.Error("Submit on a failed slice must be rejected")
	}
}

func TestFailedSliceRepairsAndResumesWork(t *testing.T) {
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareTimeSlice)
	w := &stubWorkload{name: "w", solo7g: 1, fbr: 0.5, mem: 5}
	if _, err := s.At(1, func() { g.FailSlice(0, 10) }); err != nil {
		t.Fatalf("At: %v", err)
	}
	if err := s.RunUntil(5); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if !g.Slices()[0].Failed() {
		t.Fatal("slice should be failed during the repair window")
	}
	// Double fault on the same slice is a no-op, not a second timer.
	g.FailSlice(0, 10)
	if err := s.RunUntil(12); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	sl := g.Slices()[0]
	if sl.Failed() {
		t.Fatal("slice not repaired after the window")
	}
	done := false
	j := &Job{W: w, OnDone: func(*Job) { done = true }}
	if err := sl.Submit(j); err != nil {
		t.Fatalf("Submit after repair: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !done {
		t.Error("job on a repaired slice never completed")
	}
}

func TestRepairSkipsSliceRetiredByReconfig(t *testing.T) {
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile4g, Profile3g), ShareTimeSlice)
	if _, err := s.At(1, func() {
		g.FailSlice(0, 30) // repair due at t=31
		if err := g.Reconfigure(MustGeometry(Profile7g), nil); err != nil {
			t.Errorf("Reconfigure: %v", err)
		}
	}); err != nil {
		t.Fatalf("At: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The repair timer fired against a retired slice: the new geometry's
	// slices were born healthy and must stay untouched.
	for _, sl := range g.Slices() {
		if sl.Failed() {
			t.Errorf("post-reconfig slice %d marked failed", sl.index)
		}
	}
	if g.ReconfigCount() != 1 {
		t.Errorf("reconfigs = %d, want 1", g.ReconfigCount())
	}
}

func TestStuckReconfigStretchesDowntime(t *testing.T) {
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareTimeSlice)
	faults := &stuckFaults{stretch: 5}
	g.Faults = faults
	if err := g.Reconfigure(MustGeometry(Profile4g, Profile3g), nil); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if faults.calls != 1 {
		t.Errorf("SampleReconfig consulted %d times, want exactly 1", faults.calls)
	}
	want := g.ReconfigDowntime * 5
	if !almostEqual(g.downtimeTotal, want) {
		t.Errorf("downtime = %v, want stretched %v", g.downtimeTotal, want)
	}
	if g.ReconfigCount() != 1 || g.ReconfigAborts() != 0 {
		t.Errorf("counts = (%d, %d), want (1, 0)", g.ReconfigCount(), g.ReconfigAborts())
	}
}

func TestAbortedReconfigRollsBackGeometry(t *testing.T) {
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile4g, Profile3g), ShareTimeSlice)
	before := g.Geometry().String()
	g.Faults = &stuckFaults{stretch: 1, abort: true}
	if err := g.Reconfigure(MustGeometry(Profile7g), nil); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := g.Geometry().String(); got != before {
		t.Errorf("geometry after abort = %s, want rollback to %s", got, before)
	}
	if g.ReconfigAborts() != 1 {
		t.Errorf("ReconfigAborts = %d, want 1", g.ReconfigAborts())
	}
	if g.ReconfigCount() != 0 {
		t.Errorf("ReconfigCount = %d, want 0 (abort is not a completion)", g.ReconfigCount())
	}
	if g.Reconfiguring() {
		t.Error("GPU stuck in reconfiguring state after abort")
	}
	// The GPU must accept work again on the rolled-back slices.
	w := &stubWorkload{name: "w", solo7g: 0.1, fbr: 0.5, mem: 5}
	if err := g.Slices()[0].Submit(&Job{W: w}); err != nil {
		t.Fatalf("Submit after abort: %v", err)
	}
}

func TestFailSliceDuringReconfigDowntimeIsNoop(t *testing.T) {
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareTimeSlice)
	if err := g.Reconfigure(MustGeometry(Profile4g, Profile3g), nil); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	// Downtime began immediately (idle GPU): no slices exist to fail.
	killed, displaced := g.FailSlice(0.5, 15)
	if killed != nil || displaced != nil {
		t.Errorf("FailSlice during downtime = (%v, %v), want nils", killed, displaced)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, sl := range g.Slices() {
		if sl.Failed() {
			t.Error("slice failed by a downtime-window fault")
		}
	}
}
