package chaos

import (
	"math"
	"testing"

	"protean/internal/sim"
)

// fakeTargets records every delivered fault.
type fakeTargets struct {
	sliceFaults []struct {
		node   int
		pick   float64
		repair float64
	}
	storms []float64
}

func (f *fakeTargets) InjectSliceFault(node int, pick, repair float64) {
	f.sliceFaults = append(f.sliceFaults, struct {
		node   int
		pick   float64
		repair float64
	}{node, pick, repair})
}

func (f *fakeTargets) StormDomains() int { return 1 }

func (f *fakeTargets) InjectStorm(domain int, frac float64) int {
	f.storms = append(f.storms, frac)
	return 3
}

var _ Targets = (*fakeTargets)(nil)

// startOn starts inj against fake targets with n nodes.
func startOn(inj *Injector, n int) *fakeTargets {
	tg := &fakeTargets{}
	inj.Start(tg, n)
	return tg
}

func TestDisabledInjectorIsNil(t *testing.T) {
	s := sim.New(1)
	before := s.Rand().Intn(math.MaxInt)
	s2 := sim.New(1)
	inj, err := New(s2, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if inj != nil {
		t.Fatal("disabled config must yield a nil injector")
	}
	// A disabled New must not touch the sim's RNG stream.
	if after := s2.Rand().Intn(math.MaxInt); after != before {
		t.Errorf("disabled New consumed sim randomness: %d != %d", after, before)
	}
}

func TestNilInjectorMethodsAreNeutral(t *testing.T) {
	var inj *Injector
	startOn(inj, 8)
	inj.Stop()
	if st, abort := inj.SampleReconfig(0); st != 1 || abort {
		t.Errorf("nil SampleReconfig = (%v, %v), want (1, false)", st, abort)
	}
	if m := inj.Straggler(0, 1); m != 1 {
		t.Errorf("nil Straggler = %v, want 1", m)
	}
	if inj.ColdStartFailure(0, 1) {
		t.Error("nil ColdStartFailure = true, want false")
	}
	if d, ok := inj.RetryDelay(0, 1); ok || d != 0 {
		t.Errorf("nil RetryDelay = (%v, %v), want (0, false)", d, ok)
	}
	if st := inj.Stats(); st != (Stats{}) {
		t.Errorf("nil Stats = %+v, want zero", st)
	}
}

// TestDeterministicSchedule: two injectors built from equal seeds
// deliver byte-identical fault schedules.
func TestDeterministicSchedule(t *testing.T) {
	run := func() *fakeTargets {
		s := sim.New(42)
		cfg := DefaultConfig()
		cfg.SliceFailRate = 0.05
		cfg.StormRate = 0.05
		inj, err := New(s, cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		tg := startOn(inj, 8)
		if err := s.RunUntil(120); err != nil {
			t.Fatalf("RunUntil: %v", err)
		}
		inj.Stop()
		return tg
	}
	a, b := run(), run()
	if len(a.sliceFaults) == 0 || len(a.storms) == 0 {
		t.Fatalf("expected faults in 120 s at elevated rates, got %d slice, %d storms",
			len(a.sliceFaults), len(a.storms))
	}
	if len(a.sliceFaults) != len(b.sliceFaults) || len(a.storms) != len(b.storms) {
		t.Fatalf("schedules diverge: %d/%d slice faults, %d/%d storms",
			len(a.sliceFaults), len(b.sliceFaults), len(a.storms), len(b.storms))
	}
	for i := range a.sliceFaults {
		if a.sliceFaults[i] != b.sliceFaults[i] {
			t.Errorf("slice fault %d diverges: %+v vs %+v", i, a.sliceFaults[i], b.sliceFaults[i])
		}
	}
}

func TestStopCancelsPendingFaults(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.SliceFailRate = 10 // a fault every ~12 ms across 8 nodes
	cfg.StormRate = 10
	inj, err := New(s, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tg := startOn(inj, 8)
	if err := s.RunUntil(1); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	inj.Stop()
	before := len(tg.sliceFaults) + len(tg.storms)
	if before == 0 {
		t.Fatal("expected faults before Stop")
	}
	if err := s.RunUntil(10); err != nil {
		t.Fatalf("RunUntil after Stop: %v", err)
	}
	if after := len(tg.sliceFaults) + len(tg.storms); after != before {
		t.Errorf("faults delivered after Stop: %d -> %d", before, after)
	}
	// Post-stop queries are neutral: the drain proceeds fault-free.
	if st, abort := inj.SampleReconfig(0); st != 1 || abort {
		t.Errorf("stopped SampleReconfig = (%v, %v), want (1, false)", st, abort)
	}
	if inj.ColdStartFailure(0, 1) || inj.Straggler(0, 1) != 1 {
		t.Error("stopped injector still faults")
	}
}

func TestRetryDelayBackoffAndExhaustion(t *testing.T) {
	s := sim.New(1)
	inj, err := New(s, DefaultConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	startOn(inj, 1)
	wants := []struct {
		attempt int
		nominal float64 // 0: denied
	}{
		{1, 0.5},
		{2, 1},
		{3, 2},
		{4, 4},
		{5, 0}, // the fifth attempt is the last one allowed
		{9, 0},
	}
	for _, w := range wants {
		d, ok := inj.RetryDelay(0, w.attempt)
		if w.nominal == 0 {
			if ok || d != 0 {
				t.Errorf("RetryDelay(%d) = (%v, %v), want (0, false)", w.attempt, d, ok)
			}
			continue
		}
		if !ok || d < 0.8*w.nominal-1e-12 || d > 1.2*w.nominal+1e-12 {
			t.Errorf("RetryDelay(%d) = (%v, %v), want within ±20%% of %v", w.attempt, d, ok, w.nominal)
		}
	}
	if got := inj.Stats().Retries; got != 4 {
		t.Errorf("Retries = %d, want 4", got)
	}
}

func TestRetryDelayJitterBounded(t *testing.T) {
	s := sim.New(5)
	inj, err := New(s, DefaultConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	startOn(inj, 1)
	varied := false
	for i := 0; i < 100; i++ {
		d, ok := inj.RetryDelay(0, 1)
		if !ok {
			t.Fatal("first retry denied")
		}
		if d < 0.4-1e-12 || d > 0.6+1e-12 {
			t.Fatalf("RetryDelay = %v outside jitter band [0.4, 0.6]", d)
		}
		if math.Abs(d-0.5) > 1e-9 {
			varied = true
		}
	}
	if !varied {
		t.Error("jitter never varied the delay")
	}
}

func TestScaled(t *testing.T) {
	base := DefaultConfig()
	c := base.Scaled(2)
	if c.SliceFailRate != base.SliceFailRate*2 || c.StormRate != base.StormRate*2 {
		t.Error("Scaled must multiply rates")
	}
	if p := base.Scaled(100).ColdStartFailProb; p != 1 {
		t.Errorf("probability not capped at 1: %v", p)
	}
	zero := base.Scaled(0)
	if zero.SliceFailRate != 0 || zero.StragglerProb != 0 || !zero.Enabled {
		t.Error("Scaled(0) must zero rates but stay enabled")
	}
	if neg := base.Scaled(-3); neg.SliceFailRate != 0 {
		t.Error("negative scale must clamp to 0")
	}
}

func TestValidate(t *testing.T) {
	ok := DefaultConfig()
	if err := ok.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.StragglerProb = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("probability > 1 must fail validation")
	}
	bad = DefaultConfig()
	bad.SliceFailRate = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative rate must fail validation")
	}
	if _, err := New(sim.New(1), bad); err == nil {
		t.Error("New must reject invalid configs")
	}
	disabled := bad
	disabled.Enabled = false
	if err := disabled.Validate(); err != nil {
		t.Errorf("disabled config must validate: %v", err)
	}
	if _, err := New(nil, DefaultConfig()); err == nil {
		t.Error("New must reject a nil sim when enabled")
	}
}

func TestStatsCounting(t *testing.T) {
	s := sim.New(3)
	cfg := DefaultConfig()
	cfg.StragglerProb = 1
	cfg.ColdStartFailProb = 1
	cfg.ReconfigStuckProb = 1
	cfg.ReconfigAbortProb = 1
	cfg.SliceFailRate = 0
	cfg.StormRate = 0
	inj, err := New(s, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	startOn(inj, 3)
	if m := inj.Straggler(0, 1); m != stragglerFactor {
		t.Errorf("Straggler at prob 1 = %v, want %v", m, stragglerFactor)
	}
	if !inj.ColdStartFailure(0, 1) {
		t.Error("ColdStartFailure at prob 1 = false")
	}
	stretch, abort := inj.SampleReconfig(2)
	if stretch != reconfigStuckFactor || !abort {
		t.Errorf("SampleReconfig at prob 1 = (%v, %v), want (%v, true)", stretch, abort, reconfigStuckFactor)
	}
	st := inj.Stats()
	if st.Stragglers != 1 || st.ColdStartFailures != 1 || st.StuckReconfigs != 1 || st.AbortedReconfigs != 1 {
		t.Errorf("stats = %+v, want one of each", st)
	}
}
