package gpu

import (
	"errors"
	"math"
	"slices"
	"testing"

	"protean/internal/sim"
)

// stubWorkload implements Workload with a linear RDF model for tests.
type stubWorkload struct {
	name   string
	solo7g float64
	fbr    float64
	mem    float64
	sens   float64 // deficiency sensitivity; 0 => no deficiency
	sm     float64 // compute demand; 0 => none (bandwidth-only stub)
	poll   float64 // cache pollution; 0 => flat Eq. (1) behaviour
	csens  float64 // cache sensitivity
}

func (w *stubWorkload) Name() string { return w.name }

func (w *stubWorkload) SoloTime(p Profile) float64 {
	rdf := 1 + w.sens*(1/p.ComputeFrac-1)
	return w.solo7g * rdf
}

func (w *stubWorkload) FBR() float64 { return w.fbr }

func (w *stubWorkload) MemGB(Profile) float64 { return w.mem }

func (w *stubWorkload) ComputeDemand() float64 { return w.sm }

func (w *stubWorkload) Cache() (pollution, sensitivity float64) { return w.poll, w.csens }

var _ Workload = (*stubWorkload)(nil)

func newTestGPU(t *testing.T, s *sim.Sim, geom Geometry, mode SharingMode) *GPU {
	t.Helper()
	g, err := NewGPU(s, 0, ArchA100(), geom, mode)
	if err != nil {
		t.Fatalf("NewGPU: %v", err)
	}
	return g
}

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSoloJobRunsAtSoloTime(t *testing.T) {
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareMPS)
	w := &stubWorkload{name: "w", solo7g: 0.1, fbr: 0.5, mem: 5}
	j := &Job{W: w, Enqueued: 0}
	if err := g.Slices()[0].Submit(j); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !j.done {
		t.Fatal("job not done")
	}
	if !almostEqual(j.Finished(), 0.1) {
		t.Errorf("finished at %v, want 0.1 (FBR < 1 means no slowdown)", j.Finished())
	}
	b := j.Breakdown()
	if !almostEqual(b.Interference, 0) || !almostEqual(b.Deficiency, 0) {
		t.Errorf("solo job has interference %v deficiency %v, want 0", b.Interference, b.Deficiency)
	}
}

func TestMPSInterferenceSlowdownMatchesEquationOne(t *testing.T) {
	// Two jobs with FBR 0.8 each co-located: slowdown = max(1.6, 1) = 1.6.
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareMPS)
	w := &stubWorkload{name: "w", solo7g: 1.0, fbr: 0.8, mem: 5}
	j1 := &Job{W: w}
	j2 := &Job{W: w}
	sl := g.Slices()[0]
	if err := sl.Submit(j1); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := sl.Submit(j2); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !almostEqual(j1.Finished(), 1.6) || !almostEqual(j2.Finished(), 1.6) {
		t.Errorf("finished at %v/%v, want 1.6", j1.Finished(), j2.Finished())
	}
	b := j1.Breakdown()
	if !almostEqual(b.Interference, 0.6) {
		t.Errorf("interference = %v, want 0.6", b.Interference)
	}
}

func TestHighFBRJobAloneRunsAtSoloTime(t *testing.T) {
	// A job whose FBR exceeds 1 (a generative LLM) must not be slowed
	// relative to its own solo measurement when running alone.
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareMPS)
	w := &stubWorkload{name: "gpt", solo7g: 1.0, fbr: 1.4, mem: 6}
	j := &Job{W: w}
	if err := g.Slices()[0].Submit(j); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !almostEqual(j.Finished(), 1.0) {
		t.Errorf("finished at %v, want 1.0", j.Finished())
	}
}

func TestHighFBRJobPairSlowdownNormalized(t *testing.T) {
	// Two FBR-1.4 jobs: each sees slowdown max(2.8,1)/1.4 = 2.
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareMPS)
	w := &stubWorkload{name: "gpt", solo7g: 1.0, fbr: 1.4, mem: 6}
	j1, j2 := &Job{W: w}, &Job{W: w}
	sl := g.Slices()[0]
	for _, j := range []*Job{j1, j2} {
		if err := sl.Submit(j); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !almostEqual(j1.Finished(), 2.0) {
		t.Errorf("finished at %v, want 2.0", j1.Finished())
	}
}

func TestMPSLowFBRJobsDoNotInterfere(t *testing.T) {
	// Σ FBR = 0.4 < 1 → no slowdown (the max{·, 1} floor of Eq. 1).
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareMPS)
	w := &stubWorkload{name: "w", solo7g: 1.0, fbr: 0.2, mem: 5}
	j1, j2 := &Job{W: w}, &Job{W: w}
	sl := g.Slices()[0]
	for _, j := range []*Job{j1, j2} {
		if err := sl.Submit(j); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !almostEqual(j1.Finished(), 1.0) {
		t.Errorf("finished at %v, want 1.0", j1.Finished())
	}
}

func TestMPSDynamicJoinSlowsExistingJob(t *testing.T) {
	// j1 runs alone for 0.5 s (half done), then j2 joins; both have
	// FBR 1.0, so slowdown becomes 2. j1 needs 0.5 more solo-seconds →
	// 1.0 wall seconds → finishes at 1.5.
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareMPS)
	w := &stubWorkload{name: "w", solo7g: 1.0, fbr: 1.0, mem: 5}
	sl := g.Slices()[0]
	j1 := &Job{W: w}
	if err := sl.Submit(j1); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	j2 := &Job{W: w}
	s.MustAfter(0.5, func() {
		j2.Enqueued = s.Now()
		if err := sl.Submit(j2); err != nil {
			t.Fatalf("Submit j2: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !almostEqual(j1.Finished(), 1.5) {
		t.Errorf("j1 finished at %v, want 1.5", j1.Finished())
	}
	// After j1 leaves at 1.5, j2 has 0.5 solo-seconds left at rate 1 →
	// finishes at 2.0.
	if !almostEqual(j2.Finished(), 2.0) {
		t.Errorf("j2 finished at %v, want 2.0", j2.Finished())
	}
}

func TestMPSMemoryAdmissionQueues(t *testing.T) {
	// Slice has 40 GB; three 15 GB jobs → two run, third queues.
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareMPS)
	w := &stubWorkload{name: "w", solo7g: 1.0, fbr: 0.3, mem: 15}
	sl := g.Slices()[0]
	jobs := []*Job{{W: w}, {W: w}, {W: w}}
	for _, j := range jobs {
		if err := sl.Submit(j); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if got := len(sl.running); got != 2 {
		t.Fatalf("running = %d, want 2", got)
	}
	if got := len(sl.pending); got != 1 {
		t.Fatalf("pending = %d, want 1", got)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	b := jobs[2].Breakdown()
	if !almostEqual(b.Queue, 1.0) {
		t.Errorf("queued job waited %v, want 1.0", b.Queue)
	}
}

func TestJobTooLargeRejected(t *testing.T) {
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile4g, Profile3g), ShareMPS)
	w := &stubWorkload{name: "big", solo7g: 1, fbr: 0.1, mem: 25}
	err := g.Slices()[0].Submit(&Job{W: w})
	if !errors.Is(err, ErrJobTooLarge) {
		t.Errorf("Submit err = %v, want ErrJobTooLarge", err)
	}
}

func TestTimeShareRunsSequentially(t *testing.T) {
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareTimeSlice)
	w := &stubWorkload{name: "w", solo7g: 1.0, fbr: 5.0, mem: 5}
	sl := g.Slices()[0]
	j1, j2 := &Job{W: w}, &Job{W: w}
	for _, j := range []*Job{j1, j2} {
		if err := sl.Submit(j); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// No interference despite huge FBR; second job queues 1 s.
	if !almostEqual(j1.Finished(), 1.0) || !almostEqual(j2.Finished(), 2.0) {
		t.Errorf("finished at %v/%v, want 1.0/2.0", j1.Finished(), j2.Finished())
	}
	if b := j2.Breakdown(); !almostEqual(b.Queue, 1.0) || !almostEqual(b.Interference, 0) {
		t.Errorf("j2 breakdown = %+v, want queue 1.0 interference 0", b)
	}
}

func TestResourceDeficiencyOnSmallSlice(t *testing.T) {
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile4g, Profile3g), ShareMPS)
	w := &stubWorkload{name: "w", solo7g: 1.0, fbr: 0.1, mem: 5, sens: 0.5}
	j := &Job{W: w}
	// 3g slice: ComputeFrac 3/7 → RDF = 1 + 0.5*(7/3-1) = 5/3.
	var sl3 *Slice
	for _, sl := range g.Slices() {
		if sl.Prof.Name == "3g" {
			sl3 = sl
		}
	}
	if err := sl3.Submit(j); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := 5.0 / 3.0
	if !almostEqual(j.Finished(), want) {
		t.Errorf("finished at %v, want %v", j.Finished(), want)
	}
	b := j.Breakdown()
	if !almostEqual(b.Deficiency, want-1) {
		t.Errorf("deficiency = %v, want %v", b.Deficiency, want-1)
	}
}

func TestReorderPendingPrioritizesStrict(t *testing.T) {
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareTimeSlice)
	g.ReorderPending = true
	w := &stubWorkload{name: "w", solo7g: 1.0, fbr: 0.1, mem: 5}
	sl := g.Slices()[0]
	running := &Job{W: w}
	be := &Job{W: w}
	strict := &Job{W: w, Strict: true}
	for _, j := range []*Job{running, be, strict} {
		if err := sl.Submit(j); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !(strict.Finished() < be.Finished()) {
		t.Errorf("strict finished at %v after BE at %v; want strict first", strict.Finished(), be.Finished())
	}
}

func TestSMFracCapAddsDeficiencyButKeepsFBR(t *testing.T) {
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareMPS)
	w := &stubWorkload{name: "w", solo7g: 1.0, fbr: 0.8, mem: 5, sens: 1.0}
	j := &Job{W: w, SMFrac: 0.5}
	sl := g.Slices()[0]
	if err := sl.Submit(j); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Capping SMs does not cap bandwidth demand (§2.2: cache and
	// bandwidth stay shared under strategic MPS).
	if got, want := totalFBR(sl), 0.8; !almostEqual(got, want) {
		t.Errorf("TotalFBR = %v, want %v", got, want)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Half the SMs with sens 1.0 → RDF 2 → 2 s.
	if !almostEqual(j.Finished(), 2.0) {
		t.Errorf("finished at %v, want 2.0", j.Finished())
	}
}

func TestReconfigureWaitsForDrainAndDisplacesPending(t *testing.T) {
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareTimeSlice)
	g.ReconfigDowntime = 2
	w := &stubWorkload{name: "w", solo7g: 1.0, fbr: 0.1, mem: 5}
	sl := g.Slices()[0]
	running := &Job{W: w}
	queued := &Job{W: w}
	if err := sl.Submit(running); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := sl.Submit(queued); err != nil {
		t.Fatalf("Submit: %v", err)
	}

	var readyAt float64
	var displaced []*Job
	s.MustAfter(0.25, func() {
		err := g.Reconfigure(MustGeometry(Profile4g, Profile3g), func(d []*Job) {
			readyAt = s.Now()
			displaced = d
		})
		if err != nil {
			t.Fatalf("Reconfigure: %v", err)
		}
		if !g.Reconfiguring() {
			t.Fatal("not reconfiguring")
		}
		// New submissions must be rejected while draining.
		if err := sl.Submit(&Job{W: w}); !errors.Is(err, ErrSliceClosed) {
			t.Fatalf("Submit while draining err = %v, want ErrSliceClosed", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Drain completes when `running` finishes at t=1; downtime 2 s → ready at 3.
	if !almostEqual(readyAt, 3.0) {
		t.Errorf("ready at %v, want 3.0", readyAt)
	}
	if len(displaced) != 1 || displaced[0] != queued {
		t.Errorf("displaced = %v, want the queued job", displaced)
	}
	if !g.Geometry().Equal(MustGeometry(Profile4g, Profile3g)) {
		t.Errorf("geometry = %s, want (4g, 3g)", g.Geometry())
	}
	if g.ReconfigCount() != 1 {
		t.Errorf("ReconfigCount = %d, want 1", g.ReconfigCount())
	}
	if !almostEqual(g.downtimeTotal, 2.0) {
		t.Errorf("DowntimeTotal = %v, want 2.0", g.downtimeTotal)
	}
}

func TestReconfigureIdleGPUIsImmediate(t *testing.T) {
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareMPS)
	g.ReconfigDowntime = 2
	var readyAt float64
	if err := g.Reconfigure(MustGeometry(Profile4g, Profile2g, Profile1g), func([]*Job) { readyAt = s.Now() }); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !almostEqual(readyAt, 2.0) {
		t.Errorf("ready at %v, want 2.0 (just downtime)", readyAt)
	}
	if len(g.Slices()) != 3 {
		t.Errorf("slices = %d, want 3", len(g.Slices()))
	}
}

func TestDoubleReconfigureRejected(t *testing.T) {
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareMPS)
	if err := g.Reconfigure(MustGeometry(Profile4g, Profile3g), nil); err != nil {
		t.Fatalf("first Reconfigure: %v", err)
	}
	if err := g.Reconfigure(MustGeometry(Profile7g), nil); !errors.Is(err, ErrReconfiguring) {
		t.Errorf("second Reconfigure err = %v, want ErrReconfiguring", err)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareMPS)
	w := &stubWorkload{name: "w", solo7g: 1.0, fbr: 0.1, mem: 20}
	if err := g.Slices()[0].Submit(&Job{W: w}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Advance idle time to t=2: busy 1 s of 2 s.
	if err := s.RunUntil(2); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	compute, mem := g.Utilization(s.Now())
	if !almostEqual(compute, 0.5) {
		t.Errorf("compute utilization = %v, want 0.5", compute)
	}
	if !almostEqual(mem, 20.0/40.0/2.0) {
		t.Errorf("memory utilization = %v, want 0.25", mem)
	}
}

func TestUtilizationSlotWeightedAcrossSlices(t *testing.T) {
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile4g, Profile3g), ShareMPS)
	w := &stubWorkload{name: "w", solo7g: 1.0, fbr: 0.1, mem: 5}
	// Keep only the 4g slice busy for 1 s out of 1 s → 4/7 utilization.
	if err := g.Slices()[0].Submit(&Job{W: w}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	compute, _ := g.Utilization(s.Now())
	if !almostEqual(compute, 4.0/7.0) {
		t.Errorf("compute utilization = %v, want 4/7", compute)
	}
}

// TestUtilizationWindowEndsAtLastActive: a 7g job runs from 0 to 1 and
// the clock then idles to 2. The window that ends at the GPU's last
// activity is all busy; the one that ends at the clock is half busy.
// Reading to the clock accounts the idle second, so it comes second.
func TestUtilizationWindowEndsAtLastActive(t *testing.T) {
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareMPS)
	w := &stubWorkload{name: "w", solo7g: 1.0, fbr: 0.1, mem: 20}
	if err := g.Slices()[0].Submit(&Job{W: w}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := s.RunUntil(2); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if got := g.LastActive(); got != 1 {
		t.Fatalf("LastActive = %v, want 1", got)
	}
	if compute, _ := g.Utilization(g.LastActive()); !almostEqual(compute, 1) {
		t.Errorf("Utilization(LastActive) = %v, want 1", compute)
	}
	if compute, _ := g.Utilization(s.Now()); !almostEqual(compute, 0.5) {
		t.Errorf("Utilization(Now) = %v, want 0.5", compute)
	}
}

func TestSlicesAscending(t *testing.T) {
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile4g, Profile2g, Profile1g), ShareMPS)
	asc := g.SlicesAscending()
	if asc[0].Prof.Name != "1g" || asc[2].Prof.Name != "4g" {
		t.Errorf("ascending order = [%s %s %s]", asc[0].Prof.Name, asc[1].Prof.Name, asc[2].Prof.Name)
	}
}

// viewSink keeps the view calls in TestViewsShareEngineStorage from
// being optimised away.
var viewSink struct {
	slices, ascending []*Slice
	geometry          Geometry
}

// TestViewsShareEngineStorage pins the view contract: Slices,
// SlicesAscending and Geometry hand out the GPU's own storage without
// allocating, the ascending list is the exact reverse of Slices through
// every geometry change, and a view taken before a reconfiguration keeps
// its contents.
func TestViewsShareEngineStorage(t *testing.T) {
	s := sim.New(1)
	// Two 1g slices: equal slots must come back in exactly reversed order.
	g := newTestGPU(t, s, MustGeometry(Profile3g, Profile2g, Profile1g, Profile1g), ShareMPS)
	checkReversed := func(when string) {
		t.Helper()
		desc, asc := g.Slices(), g.SlicesAscending()
		if len(desc) == 0 || len(asc) != len(desc) {
			t.Fatalf("%s: %d slices, %d ascending", when, len(desc), len(asc))
		}
		for i, sl := range desc {
			if asc[len(asc)-1-i] != sl {
				t.Errorf("%s: SlicesAscending is not Slices reversed at %d", when, i)
			}
		}
	}
	checkReversed("after NewGPU")
	if n := testing.AllocsPerRun(100, func() {
		viewSink.slices = g.Slices()
		viewSink.ascending = g.SlicesAscending()
		viewSink.geometry = g.Geometry()
	}); n != 0 {
		t.Errorf("views allocate %v times per call set, want 0", n)
	}

	oldSlices, oldGeom := g.Slices(), g.Geometry()
	wantSlices, wantGeom := slices.Clone(oldSlices), slices.Clone(oldGeom)
	if err := g.Reconfigure(MustGeometry(Profile4g, Profile2g, Profile1g), nil); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkReversed("after Reconfigure")
	if !slices.Equal(oldSlices, wantSlices) || !slices.Equal(oldGeom, wantGeom) {
		t.Errorf("views taken before Reconfigure changed: %v, %s", oldSlices, oldGeom)
	}

	g.Faults = &stuckFaults{stretch: 1, abort: true}
	if err := g.Reconfigure(MustGeometry(Profile7g), nil); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if g.ReconfigAborts() != 1 {
		t.Fatalf("ReconfigAborts = %d, want 1", g.ReconfigAborts())
	}
	checkReversed("after an aborted Reconfigure")

	g.FailSlice(0.5, 5)
	checkReversed("after FailSlice")
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, sl := range g.Slices() {
		if sl.Failed() {
			t.Fatalf("slice %d still failed after repair", sl.index)
		}
	}
	checkReversed("after repair")
}

func TestLatencyIncludesColdStartAndQueue(t *testing.T) {
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareMPS)
	w := &stubWorkload{name: "w", solo7g: 1.0, fbr: 0.1, mem: 5}
	j := &Job{W: w, ColdStart: 4.0}
	s.MustAfter(10, func() {
		j.Enqueued = s.Now()
		if err := g.Slices()[0].Submit(j); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !almostEqual(latency(j), 5.0) {
		t.Errorf("latency = %v, want 5.0 (4 cold + 1 exec)", latency(j))
	}
	if b := j.Breakdown(); !almostEqual(b.Total(), 5.0) {
		t.Errorf("breakdown total = %v, want 5.0", b.Total())
	}
}

func TestOnDoneCallbackFires(t *testing.T) {
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareMPS)
	w := &stubWorkload{name: "w", solo7g: 0.5, fbr: 0.1, mem: 5}
	var doneAt float64
	j := &Job{W: w, OnDone: func(j *Job) { doneAt = s.Now() }}
	if err := g.Slices()[0].Submit(j); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !almostEqual(doneAt, 0.5) {
		t.Errorf("OnDone at %v, want 0.5", doneAt)
	}
}

// Property-style conservation check: with many jobs of random sizes on an
// MPS slice, every job eventually completes, wall time >= solo time, and
// the breakdown components are non-negative and sum to the latency.
func TestMPSConservationManyJobs(t *testing.T) {
	s := sim.New(99)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareMPS)
	sl := g.Slices()[0]
	var jobs []*Job
	for i := 0; i < 60; i++ {
		w := &stubWorkload{
			name:   "w",
			solo7g: 0.05 + s.Rand().Float64()*0.3,
			fbr:    s.Rand().Float64(),
			mem:    1 + s.Rand().Float64()*10,
		}
		j := &Job{W: w, Strict: i%2 == 0}
		jobs = append(jobs, j)
		at := s.Rand().Float64() * 5
		s.MustAfter(at, func() {
			j.Enqueued = s.Now()
			if err := sl.Submit(j); err != nil {
				t.Errorf("Submit: %v", err)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, j := range jobs {
		if !j.done {
			t.Fatalf("job %d never completed", i)
		}
		solo := j.W.SoloTime(Profile7g)
		if j.Finished()-j.Started() < solo-1e-9 {
			t.Errorf("job %d ran faster (%v) than solo (%v)", i, j.Finished()-j.Started(), solo)
		}
		b := j.Breakdown()
		for name, v := range map[string]float64{
			"queue": b.Queue, "cold": b.ColdStart, "min": b.MinPossible,
			"deficiency": b.Deficiency, "interference": b.Interference,
		} {
			if v < 0 {
				t.Errorf("job %d: negative %s component %v", i, name, v)
			}
		}
		if math.Abs(b.Total()-latency(j)) > 1e-6 {
			t.Errorf("job %d: breakdown total %v != latency %v", i, b.Total(), latency(j))
		}
	}
}

func TestCrossInterferenceAmplification(t *testing.T) {
	// With γ = 4 and pollution = sensitivity = 0.5, a job co-located
	// with one FBR-0.8 co-runner sees slowdown
	// (0.8 + 0.8×(1 + 4×0.5×0.5))/1 = 2.4.
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareMPS)
	w := &stubWorkload{name: "w", solo7g: 1.0, fbr: 0.8, mem: 5, poll: 0.5, csens: 0.5}
	j1, j2 := &Job{W: w}, &Job{W: w}
	sl := g.Slices()[0]
	for _, j := range []*Job{j1, j2} {
		if err := sl.Submit(j); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !almostEqual(j1.Finished(), 2.4) {
		t.Errorf("finished at %v, want 2.4 (amplified co-runner demand)", j1.Finished())
	}
}

func TestComputeContentionSlowsCoLocatedJobs(t *testing.T) {
	// Two compute-saturating jobs (demand 1.0 each, negligible FBR)
	// share SMs: each runs at half speed.
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareMPS)
	w := &stubWorkload{name: "w", solo7g: 1.0, fbr: 0.1, mem: 5, sm: 1.0}
	j1, j2 := &Job{W: w}, &Job{W: w}
	sl := g.Slices()[0]
	for _, j := range []*Job{j1, j2} {
		if err := sl.Submit(j); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !almostEqual(j1.Finished(), 2.0) {
		t.Errorf("finished at %v, want 2.0 (SM sharing)", j1.Finished())
	}
}

func TestComputeDemandBelowCapacityRunsConcurrently(t *testing.T) {
	// Two 0.4-demand jobs fit the SMs together: no compute slowdown.
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareMPS)
	w := &stubWorkload{name: "w", solo7g: 1.0, fbr: 0.1, mem: 5, sm: 0.4}
	j1, j2 := &Job{W: w}, &Job{W: w}
	sl := g.Slices()[0]
	for _, j := range []*Job{j1, j2} {
		if err := sl.Submit(j); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !almostEqual(j1.Finished(), 1.0) {
		t.Errorf("finished at %v, want 1.0 (SMs not oversubscribed)", j1.Finished())
	}
}

func TestSlowdownReportsFullPerJobMultiplier(t *testing.T) {
	// Regression: Slowdown() used to report only max(Σ FBR, 1), hiding
	// the cache-pollution amplification and SM-contention terms that
	// slowdownFor actually applies. It must agree with the max over
	// running jobs of the exported per-job path.
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareMPS)
	sl := g.Slices()[0]
	// A cache-sensitive job next to a polluting one, plus SM pressure:
	// both the amplification and the compute term are in play.
	victim := &stubWorkload{name: "victim", solo7g: 10, fbr: 0.6, mem: 5, csens: 0.8, sm: 0.7}
	bully := &stubWorkload{name: "bully", solo7g: 10, fbr: 0.8, mem: 5, poll: 0.9, sm: 0.7}
	j1, j2 := &Job{W: victim}, &Job{W: bully}
	for _, j := range []*Job{j1, j2} {
		if err := sl.Submit(j); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	want := math.Max(sl.slowdownFor(j1), sl.slowdownFor(j2))
	if got := sl.Slowdown(); !almostEqual(got, want) {
		t.Errorf("Slowdown = %v, want max per-job multiplier %v", got, want)
	}
	// The victim sees amplified demand: 0.6 + 0.8×(1 + 4×0.9×0.8) /
	// normalized by its own 0.6... strictly above the naive ΣFBR figure.
	naive := math.Max(totalFBR(sl), 1)
	if got := sl.Slowdown(); got <= naive {
		t.Errorf("Slowdown = %v, want > naive ΣFBR multiplier %v (amplification ignored)", got, naive)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Idle slice reports 1 again.
	if got := sl.Slowdown(); !almostEqual(got, 1) {
		t.Errorf("idle Slowdown = %v, want 1", got)
	}
}

func TestSlowdownTimeSliceAlwaysOne(t *testing.T) {
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareTimeSlice)
	sl := g.Slices()[0]
	w := &stubWorkload{name: "w", solo7g: 1.0, fbr: 5.0, mem: 5}
	if err := sl.Submit(&Job{W: w}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got := sl.Slowdown(); !almostEqual(got, 1) {
		t.Errorf("time-shared Slowdown = %v, want 1", got)
	}
}

func TestMPSAdmissionSkipsBlockedHead(t *testing.T) {
	// Regression (head-of-line blocking): with ReorderPending, a strict
	// batch too large for the remaining slice memory used to starve
	// smaller best-effort batches queued behind it until the slice fully
	// drained. Admission now skips past a blocked head (bounded
	// lookahead) while keeping queue order among admissible jobs.
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareMPS)
	g.ReorderPending = true
	sl := g.Slices()[0]
	occupant := &Job{W: &stubWorkload{name: "occupant", solo7g: 10, fbr: 0.1, mem: 30}}
	if err := sl.Submit(occupant); err != nil {
		t.Fatalf("Submit occupant: %v", err)
	}
	// 10 GB free: the 20 GB strict head cannot start...
	bigStrict := &Job{W: &stubWorkload{name: "big-strict", solo7g: 1, fbr: 0.1, mem: 20}, Strict: true}
	beA := &Job{W: &stubWorkload{name: "be-a", solo7g: 1, fbr: 0.1, mem: 4}}
	beB := &Job{W: &stubWorkload{name: "be-b", solo7g: 1, fbr: 0.1, mem: 4}}
	for _, j := range []*Job{bigStrict, beA, beB} {
		if err := sl.Submit(j); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	// ...but the two 4 GB BE jobs behind it must be running already.
	if got := len(sl.running); got != 3 {
		t.Fatalf("running = %d, want 3 (occupant + both BE jobs)", got)
	}
	if bigStrict.running {
		t.Fatal("oversized strict head started without memory")
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Queue order among admissible jobs is preserved, and the strict
	// head starts as soon as the occupant's 30 GB free up (t = 10).
	if !(beA.Started() <= beB.Started()) {
		t.Errorf("BE admission out of order: %v after %v", beA.Started(), beB.Started())
	}
	if !almostEqual(bigStrict.Started(), 10) {
		t.Errorf("strict head started at %v, want 10 (right after the occupant drains)", bigStrict.Started())
	}
	for i, j := range []*Job{occupant, bigStrict, beA, beB} {
		if !j.done {
			t.Errorf("job %d never completed", i)
		}
	}
}

func TestMPSAdmissionLookaheadBounded(t *testing.T) {
	// More than AdmitLookahead blocked jobs ahead of an admissible one:
	// the scan must give up (the bound is what keeps the head's own wait
	// bounded), so the small job stays pending.
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile7g), ShareMPS)
	sl := g.Slices()[0]
	occupant := &Job{W: &stubWorkload{name: "occupant", solo7g: 10, fbr: 0.1, mem: 30}}
	if err := sl.Submit(occupant); err != nil {
		t.Fatalf("Submit occupant: %v", err)
	}
	big := &stubWorkload{name: "big", solo7g: 1, fbr: 0.1, mem: 20}
	for i := 0; i <= AdmitLookahead; i++ {
		if err := sl.Submit(&Job{W: big}); err != nil {
			t.Fatalf("Submit blocked %d: %v", i, err)
		}
	}
	small := &Job{W: &stubWorkload{name: "small", solo7g: 1, fbr: 0.1, mem: 4}}
	if err := sl.Submit(small); err != nil {
		t.Fatalf("Submit small: %v", err)
	}
	if small.running {
		t.Fatalf("small job started past %d blocked jobs; lookahead not bounded", AdmitLookahead+1)
	}
	if got := len(sl.running); got != 1 {
		t.Fatalf("running = %d, want only the occupant", got)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !small.done {
		t.Error("small job never completed")
	}
}

func TestBusyFractionNonIdleTime(t *testing.T) {
	// Two slices each busy for disjoint 1 s windows: the GPU is
	// non-idle for 2 of 4 seconds regardless of slice size.
	s := sim.New(1)
	g := newTestGPU(t, s, MustGeometry(Profile4g, Profile3g), ShareMPS)
	w := &stubWorkload{name: "w", solo7g: 1.0, fbr: 0.1, mem: 5}
	if err := g.Slices()[0].Submit(&Job{W: w}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	s.MustAfter(2, func() {
		if err := g.Slices()[1].Submit(&Job{W: w, Enqueued: s.Now()}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := s.RunUntil(4); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if got := g.BusyFraction(s.Now()); !almostEqual(got, 0.5) {
		t.Errorf("BusyFraction = %v, want 0.5", got)
	}
	// Slot-weighted utilization differs: (4/7 + 3/7)/4 = 0.25.
	compute, _ := g.Utilization(s.Now())
	if !almostEqual(compute, 0.25) {
		t.Errorf("slot-weighted utilization = %v, want 0.25", compute)
	}
}

// latency is a completed job's end-to-end latency: cold start plus the
// time from enqueue to finish.
func latency(j *Job) float64 { return j.ColdStart + (j.finished - j.Enqueued) }

// totalFBR is the summed bandwidth demand of the jobs running on sl.
func totalFBR(sl *Slice) float64 {
	total := 0.0
	for _, j := range sl.running {
		total += j.invFBR
	}
	return total
}
