package gpu

import (
	"math"
	"testing"

	"protean/internal/sim"
)

// TestCachedInvariantsMatchAccessors pins the cached-invariant rule: for
// every running job, the values cached at start() must be bitwise equal
// to what the lazy accessors return, across scales and SM caps.
func TestCachedInvariantsMatchAccessors(t *testing.T) {
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareMPS)
	sl := g.slices[0]
	jobs := []*Job{
		{W: &stubWorkload{name: "a", solo7g: 100, fbr: 0.8, mem: 5, sm: 0.9, poll: 0.7, csens: 0.3}},
		{W: &stubWorkload{name: "b", solo7g: 100, fbr: 0.5, mem: 3, sm: 0.4, poll: 0.2, csens: 0.9}, Scale: 0.37},
		{W: &stubWorkload{name: "c", solo7g: 100, fbr: 1.3, mem: 7, sm: 1.5, poll: 1, csens: 1}, SMFrac: 0.45, Scale: 0.81},
	}
	for _, j := range jobs {
		if err := sl.Submit(j); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	for _, j := range jobs {
		if !j.invCached {
			t.Fatalf("job %s not cached after start", j.W.Name())
		}
		//lint:ignore floateq cached values must be bitwise identical to the accessors, not merely close
		if j.invFBR != j.effFBR() || j.invDemand != j.effComputeDemand(sl.Prof) || j.invMemGB != j.W.MemGB(sl.Prof) {
			t.Errorf("job %s: cached (fbr=%v demand=%v mem=%v) != accessors (%v %v %v)",
				j.W.Name(), j.invFBR, j.invDemand, j.invMemGB,
				j.effFBR(), j.effComputeDemand(sl.Prof), j.W.MemGB(sl.Prof))
		}
		poll, sens := j.W.Cache()
		//lint:ignore floateq same bitwise-identity requirement for the cache coefficients
		if j.invPoll != poll || j.invSens != sens {
			t.Errorf("job %s: cached cache coefficients (%v, %v) != accessors (%v, %v)",
				j.W.Name(), j.invPoll, j.invSens, poll, sens)
		}
	}
}

// referenceSlowdownFor re-derives the interference multiplier through
// the workload interface, mirroring the pre-cache implementation term
// for term (including summation order).
func referenceSlowdownFor(sl *Slice, j *Job) float64 {
	if sl.Mode == ShareTimeSlice {
		return 1
	}
	amp := sl.gpu.InterferenceAmp
	_, sens := j.W.Cache()
	own := j.effFBR()
	others := 0.0
	for _, r := range sl.running {
		if r == j {
			continue
		}
		poll, _ := r.W.Cache()
		others += r.effFBR() * (1 + amp*poll*sens)
	}
	demand := 0.0
	for _, r := range sl.running {
		if r == j {
			demand += j.effComputeDemand(sl.Prof)
			continue
		}
		demand += r.effComputeDemand(sl.Prof)
	}
	bw := math.Max(own+others, 1) / math.Max(own, 1)
	ownSM := math.Max(j.effComputeDemand(sl.Prof), 1)
	sm := math.Max(demand, 1) / ownSM
	return math.Max(math.Max(bw, sm), 1)
}

// TestSlowdownForMatchesReference checks the cached fast path against
// the interface-driven reference for resident jobs, and the uncached
// fallback for a what-if query about a job that never ran here.
func TestSlowdownForMatchesReference(t *testing.T) {
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareMPS)
	sl := g.slices[0]
	for i, w := range benchWorkloads(6) {
		j := &Job{W: w, Scale: 0.4 + 0.1*float64(i)}
		if err := sl.Submit(j); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	for _, j := range sl.running {
		//lint:ignore floateq the cached path must reproduce the reference bitwise, or seeds diverge
		if got, want := sl.slowdownFor(j), referenceSlowdownFor(sl, j); got != want {
			t.Errorf("resident %s: SlowdownFor = %v, reference = %v", j.W.Name(), got, want)
		}
	}
	foreign := &Job{W: &stubWorkload{name: "foreign", solo7g: 1, fbr: 0.9, mem: 1, sm: 0.6, poll: 0.5, csens: 0.5}}
	//lint:ignore floateq same bitwise requirement for the uncached what-if path
	if got, want := sl.slowdownFor(foreign), referenceSlowdownFor(sl, foreign); got != want {
		t.Errorf("foreign job: SlowdownFor = %v, reference = %v", got, want)
	}
}

// TestCachedMemoryBalancesToZero runs co-resident jobs to completion and
// checks the cached add/subtract leaves no residual occupancy.
func TestCachedMemoryBalancesToZero(t *testing.T) {
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareMPS)
	sl := g.slices[0]
	for i := 0; i < 5; i++ {
		w := &stubWorkload{name: "w", solo7g: 0.1 * float64(i+1), fbr: 0.3, mem: 3.3}
		if err := sl.Submit(&Job{W: w}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sl.usedMem != 0 {
		t.Errorf("used memory = %v GB after all jobs completed, want 0", sl.usedMem)
	}
	if got := s.Pending(); got != 0 {
		t.Errorf("Pending = %d after drain, want 0 (no stranded completion timers)", got)
	}
}
