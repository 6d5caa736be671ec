package autoscale

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
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

// scalerOp is one step of a lookup-reference sequence: at virtual time
// at, op runs against model with argument n.
type scalerOp struct {
	at    float64
	op    int
	model string
	n     int
}

// poolLookupOps draws a seeded sequence of scaler operations. Models
// come into play in descending name order, so each new pool is
// inserted ahead of the pools already cached, and most operations fall
// on the two models introduced last, as a node's strict model and its
// current best-effort model do.
func poolLookupOps(rng *rand.Rand) []scalerOp {
	names := []string{"vgg", "shufflenet", "resnet", "gpt", "dpn", "bert", "alexnet"}
	live := 1
	var ops []scalerOp
	at := 0.0
	for range 400 {
		at += float64(rng.Intn(4))
		if live < len(names) && rng.Intn(25) == 0 {
			live++
		}
		m := names[live-1-rng.Intn(min(live, 2))]
		if rng.Intn(5) == 0 {
			m = names[rng.Intn(live)]
		}
		ops = append(ops, scalerOp{at: at, op: rng.Intn(7), model: m, n: rng.Intn(3)})
	}
	return ops
}

// runScalerOps applies ops to a fresh scaler and returns the log of
// every result, the final pools and counters, and the traced autoscale
// events. A search-only scaler empties its lookup cache before each
// operation, so every lookup binary-searches.
func runScalerOps(t *testing.T, cfg Config, ops []scalerOp, searchOnly bool) string {
	t.Helper()
	s := sim.New(1)
	col := obs.NewCollector("autoscale")
	s.SetTracer(col)
	sc := newScaler(t, s, cfg)
	var log strings.Builder
	for _, op := range ops {
		s.MustAfter(op.at, func() {
			if searchOnly {
				sc.recent = [2]*pool{}
			}
			switch op.op {
			case 0, 1:
				d, err := sc.Acquire(op.model)
				fmt.Fprintf(&log, "acquire %s %v %v\n", op.model, d, err)
			case 2, 3:
				fmt.Fprintf(&log, "release %s %v\n", op.model, sc.Release(op.model))
			case 4:
				fmt.Fprintf(&log, "abort %s %v\n", op.model, sc.Abort(op.model))
			case 5:
				sc.Prewarm(op.model, op.n)
				fmt.Fprintf(&log, "prewarm %s %d warm %d\n", op.model, op.n, sc.Warm(op.model))
			case 6:
				sc.Sweep()
				fmt.Fprintf(&log, "sweep drain %s %d\n", op.model, sc.Drain(op.model))
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, p := range sc.pools {
		fmt.Fprintf(&log, "pool %s busy %d idle since %v\n", p.name, p.busy, p.idleSince)
	}
	fmt.Fprintf(&log, "cold starts %d spawned %d\n", sc.coldStarts, sc.spawned)
	for _, ev := range col.Trace().Events {
		fmt.Fprintf(&log, "%+v\n", ev)
	}
	return log.String()
}

// TestPoolLookupMatchesSearch runs seeded sequences of every pool
// operation on a scaler whose lookups go through its cache and on one
// whose lookups always binary-search, and requires the same results,
// pools, cold starts, spawned counts, expiry times and trace events.
func TestPoolLookupMatchesSearch(t *testing.T) {
	for seed := range int64(40) {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{KeepAlive: float64(5 + rng.Intn(40)), Immediate: rng.Intn(4) == 0}
		ops := poolLookupOps(rng)
		got := runScalerOps(t, cfg, ops, false)
		if want := runScalerOps(t, cfg, ops, true); got != want {
			t.Fatalf("seed %d: cached lookups diverge from search:\n got:\n%s\n want:\n%s", seed, got, want)
		}
	}
}

// BenchmarkScalerAcquireRelease acquires and releases containers for a
// strict model and a best-effort model in turn over six pools, the
// best-effort model rotating among the other five: a node's per-batch
// scaler traffic.
func BenchmarkScalerAcquireRelease(b *testing.B) {
	sc, err := NewScaler(sim.New(1), Config{})
	if err != nil {
		b.Fatal(err)
	}
	names := []string{"bert", "dpn", "gpt", "resnet", "shufflenet", "vgg"}
	for _, m := range names {
		sc.Prewarm(m, 2)
	}
	strict, be := names[0], names[1:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := be[i/64%len(be)]
		if _, err := sc.Acquire(strict); err != nil {
			b.Fatal(err)
		}
		if _, err := sc.Acquire(m); err != nil {
			b.Fatal(err)
		}
		if err := sc.Release(strict); err != nil {
			b.Fatal(err)
		}
		if err := sc.Release(m); err != nil {
			b.Fatal(err)
		}
	}
}
