package autoscale

import (
	"slices"
	"testing"

	"protean/internal/obs"
	"protean/internal/sim"
)

func newScaler(t *testing.T, s *sim.Sim, cfg Config) *Scaler {
	t.Helper()
	sc, err := NewScaler(s, cfg)
	if err != nil {
		t.Fatalf("NewScaler: %v", err)
	}
	return sc
}

func TestFirstAcquireIsColdStart(t *testing.T) {
	s := sim.New(1)
	sc := newScaler(t, s, Config{})
	delay, err := sc.Acquire("resnet")
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if delay != 4 {
		t.Errorf("delay = %v, want 4 (cold start)", delay)
	}
	if sc.ColdStarts() != 1 {
		t.Errorf("ColdStarts = %d, want 1", sc.ColdStarts())
	}
}

func TestWarmReuseAvoidsColdStart(t *testing.T) {
	s := sim.New(1)
	sc := newScaler(t, s, Config{KeepAlive: 600})
	if _, err := sc.Acquire("resnet"); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if err := sc.Release("resnet"); err != nil {
		t.Fatalf("Release: %v", err)
	}
	delay, err := sc.Acquire("resnet")
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if delay != 0 {
		t.Errorf("delay = %v, want 0 (warm container)", delay)
	}
	if sc.ColdStarts() != 1 {
		t.Errorf("ColdStarts = %d, want 1", sc.ColdStarts())
	}
}

func TestPoolsArePerModel(t *testing.T) {
	s := sim.New(1)
	sc := newScaler(t, s, Config{})
	if _, err := sc.Acquire("a"); err != nil {
		t.Fatal(err)
	}
	if err := sc.Release("a"); err != nil {
		t.Fatal(err)
	}
	delay, err := sc.Acquire("b")
	if err != nil {
		t.Fatal(err)
	}
	if delay == 0 {
		t.Error("model b reused model a's container")
	}
}

func TestDelayedTerminationExpiresIdleContainers(t *testing.T) {
	s := sim.New(1)
	sc := newScaler(t, s, Config{KeepAlive: 100})
	if _, err := sc.Acquire("m"); err != nil {
		t.Fatal(err)
	}
	if err := sc.Release("m"); err != nil {
		t.Fatal(err)
	}
	if sc.Warm("m") != 1 {
		t.Fatalf("Warm = %d, want 1", sc.Warm("m"))
	}
	// Within keep-alive: still warm.
	s.MustAfter(99, func() {
		if got, _ := sc.Acquire("m"); got != 0 {
			t.Errorf("delay = %v, want 0 before keep-alive expiry", got)
		}
		_ = sc.Release("m")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Much later: expired → cold start again.
	s.MustAfter(500, func() {
		if got, _ := sc.Acquire("m"); got == 0 {
			t.Error("expired container reused after keep-alive")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestImmediateModeAlwaysColdStarts(t *testing.T) {
	s := sim.New(1)
	sc := newScaler(t, s, Config{Immediate: true})
	for i := 0; i < 3; i++ {
		delay, err := sc.Acquire("m")
		if err != nil {
			t.Fatal(err)
		}
		if delay == 0 {
			t.Fatal("immediate mode reused a container")
		}
		if err := sc.Release("m"); err != nil {
			t.Fatal(err)
		}
	}
	if sc.ColdStarts() != 3 {
		t.Errorf("ColdStarts = %d, want 3", sc.ColdStarts())
	}
	if sc.Live() != 0 {
		t.Errorf("Live = %d, want 0", sc.Live())
	}
}

func TestLIFOReuseAgesOutOldest(t *testing.T) {
	s := sim.New(1)
	sc := newScaler(t, s, Config{KeepAlive: 50})
	// Two containers idle at t=0.
	for i := 0; i < 2; i++ {
		if _, err := sc.Acquire("m"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := sc.Release("m"); err != nil {
			t.Fatal(err)
		}
	}
	// Keep one busy via LIFO reuse at t=30..45; the untouched one idles
	// past 50 and expires.
	s.MustAfter(30, func() {
		if d, _ := sc.Acquire("m"); d != 0 {
			t.Error("expected warm reuse at t=30")
		}
	})
	s.MustAfter(45, func() { _ = sc.Release("m") })
	s.MustAfter(60, func() {
		sc.Sweep()
		if got := sc.Warm("m"); got != 1 {
			t.Errorf("Warm = %d, want 1 (oldest expired)", got)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseWithoutAcquire(t *testing.T) {
	s := sim.New(1)
	sc := newScaler(t, s, Config{})
	if err := sc.Release("m"); err == nil {
		t.Error("release without acquire accepted")
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewScaler(nil, Config{}); err == nil {
		t.Error("nil sim accepted")
	}
	s := sim.New(1)
	sc := newScaler(t, s, Config{})
	if _, err := sc.Acquire(""); err == nil {
		t.Error("empty model name accepted")
	}
}

func TestLiveCountsAcrossModels(t *testing.T) {
	s := sim.New(1)
	sc := newScaler(t, s, Config{KeepAlive: 600})
	for _, m := range []string{"a", "b", "c"} {
		if _, err := sc.Acquire(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.Release("a"); err != nil {
		t.Fatal(err)
	}
	if got := sc.Live(); got != 3 {
		t.Errorf("Live = %d, want 3 (2 busy + 1 idle)", got)
	}
}

// TestSweepAllocatesNothing pins that a steady-state Sweep — every pool
// already created, nothing left to expire — walks the pools without
// allocating: it runs on every monitor tick of every node.
func TestSweepAllocatesNothing(t *testing.T) {
	s := sim.New(1)
	sc := newScaler(t, s, Config{KeepAlive: 100})
	for _, name := range []string{"vgg", "bert", "resnet", "dpn"} {
		sc.Prewarm(name, 2)
	}
	if allocs := testing.AllocsPerRun(100, sc.Sweep); allocs != 0 {
		t.Fatalf("Sweep allocates %v times per call, want 0", allocs)
	}
}

// TestSweepExpiresInNameOrder: pools created in any order, through
// Acquire or Prewarm, expire in ascending name order, so the traced
// expire events do not depend on creation order.
func TestSweepExpiresInNameOrder(t *testing.T) {
	s := sim.New(1)
	col := obs.NewCollector("autoscale")
	s.SetTracer(col)
	sc := newScaler(t, s, Config{KeepAlive: 100})
	for _, name := range []string{"vgg", "bert", "resnet"} {
		if _, err := sc.Acquire(name); err != nil {
			t.Fatal(err)
		}
		if err := sc.Release(name); err != nil {
			t.Fatal(err)
		}
	}
	sc.Prewarm("dpn", 1)
	sc.Prewarm("alexnet", 1)
	if _, err := sc.Acquire("bart"); err != nil {
		t.Fatal(err)
	}
	if err := sc.Release("bart"); err != nil {
		t.Fatal(err)
	}
	s.MustAfter(200, sc.Sweep)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range col.Trace().Events {
		if ev.Detail == "expire" {
			got = append(got, ev.Model)
		}
	}
	want := []string{"alexnet", "bart", "bert", "dpn", "resnet", "vgg"}
	if !slices.Equal(got, want) {
		t.Fatalf("expire order = %v, want %v", got, want)
	}
}
