package reconfig

import (
	"testing"

	"protean/internal/gpu"
)

func geom(names string) gpu.Geometry {
	g, err := gpu.ParseGeometry(names)
	if err != nil {
		panic(err)
	}
	return g
}

func TestPlanChoosesSmallestFittingSliceSet(t *testing.T) {
	p := New(Config{WaitLimit: -1})
	// 2 BE batches × 4 GB = 8 GB fits [1g,2g] (15 GB) at occupancy 0.53.
	d := p.Plan(PlanInput{Current: geom("7g"), BEMemPerBatch: 4, PredBEBatches: 2})
	if !d.Desired.Equal(geom("4g,2g,1g")) {
		t.Errorf("desired = %s, want (4g, 2g, 1g)", d.Desired)
	}
	if !d.Reconfigure {
		t.Error("no hysteresis configured, should reconfigure immediately")
	}
}

func TestPlanEscalatesToThreeG(t *testing.T) {
	p := New(Config{WaitLimit: -1})
	// 14 GB of BE work: occupancy on [1g,2g] is 0.93 > T_high → try
	// [3g] (20 GB, occupancy 0.7) → (4g, 3g)... which equals the
	// fallback geometry but via the found path.
	d := p.Plan(PlanInput{Current: geom("7g"), BEMemPerBatch: 7, PredBEBatches: 2})
	if !d.Desired.Equal(geom("4g,3g")) {
		t.Errorf("desired = %s, want (4g, 3g)", d.Desired)
	}
}

func TestPlanFallsBackOnHugeBEFootprint(t *testing.T) {
	p := New(Config{WaitLimit: -1})
	// 36 GB of BE work fits neither small set → (4g, 3g) fallback.
	d := p.Plan(PlanInput{Current: geom("4g,2g,1g"), BEMemPerBatch: 12, PredBEBatches: 3})
	if !d.Desired.Equal(geom("4g,3g")) {
		t.Errorf("desired = %s, want (4g, 3g) fallback", d.Desired)
	}
}

func TestPlanFallsBackOnTinyBEFootprint(t *testing.T) {
	p := New(Config{WaitLimit: -1})
	// Nearly no BE work: occupancy < T_low → consolidate on (4g, 3g).
	d := p.Plan(PlanInput{Current: geom("4g,2g,1g"), BEMemPerBatch: 0.2, PredBEBatches: 1})
	if !d.Desired.Equal(geom("4g,3g")) {
		t.Errorf("desired = %s, want (4g, 3g) consolidation", d.Desired)
	}
}

func TestHysteresisRequiresConsecutiveMismatches(t *testing.T) {
	p := New(Config{WaitLimit: 3})
	cur := geom("4g,2g,1g")
	// Mismatching plan: huge BE → (4g, 3g). Two windows: no change yet.
	for i := 1; i <= 2; i++ {
		d := p.Plan(PlanInput{Current: cur, BEMemPerBatch: 12, PredBEBatches: 3})
		if d.Reconfigure {
			t.Fatalf("window %d: reconfigured before wait limit", i)
		}
		if d.WaitCtr != i {
			t.Fatalf("window %d: waitCtr = %d", i, d.WaitCtr)
		}
	}
	// Third consecutive mismatch fires.
	if d := p.Plan(PlanInput{Current: cur, BEMemPerBatch: 12, PredBEBatches: 3}); !d.Reconfigure {
		t.Fatal("third mismatch did not reconfigure")
	}
	// Counter reset after firing.
	if d := p.Plan(PlanInput{Current: cur, BEMemPerBatch: 12, PredBEBatches: 3}); d.Reconfigure {
		t.Fatal("counter not reset after reconfiguration")
	}
}

func TestHysteresisResetsOnMatch(t *testing.T) {
	p := New(Config{WaitLimit: 3})
	cur := geom("4g,2g,1g")
	p.Plan(PlanInput{Current: cur, BEMemPerBatch: 12, PredBEBatches: 3}) // mismatch 1
	p.Plan(PlanInput{Current: cur, BEMemPerBatch: 12, PredBEBatches: 3}) // mismatch 2
	if d := p.Plan(PlanInput{Current: cur, BEMemPerBatch: 4, PredBEBatches: 2}); d.Reconfigure || d.WaitCtr != 0 {
		t.Fatalf("matching window should reset: %+v", d)
	}
	// Mismatch streak must start over.
	if d := p.Plan(PlanInput{Current: cur, BEMemPerBatch: 12, PredBEBatches: 3}); d.Reconfigure {
		t.Fatal("reconfigured without a fresh streak")
	}
}

func TestEWMAPredictionPath(t *testing.T) {
	p := New(Config{WaitLimit: -1, Alpha: 1}) // alpha 1 = last value
	p.ObserveBEBatches(2)
	if got := p.pred.PredictOr(0); got != 2 {
		t.Errorf("prediction = %v, want 2", got)
	}
	// predBEBatches = -1 → use EWMA.
	d := p.Plan(PlanInput{Current: geom("7g"), BEMemPerBatch: 4, PredBEBatches: -1})
	if !d.Desired.Equal(geom("4g,2g,1g")) {
		t.Errorf("desired = %s, want (4g, 2g, 1g)", d.Desired)
	}
}

func TestDefaultsApplied(t *testing.T) {
	p := New(Config{})
	if p.cfg.WaitLimit != 3 {
		t.Errorf("WaitLimit = %d, want 3", p.cfg.WaitLimit)
	}
	if p.cfg.Alpha != 0.35 {
		t.Errorf("alpha = %v, want 0.35", p.cfg.Alpha)
	}
}

func TestBudgetCapsConcurrentReconfigs(t *testing.T) {
	b, err := NewBudget(8, 0.3)
	if err != nil {
		t.Fatalf("NewBudget: %v", err)
	}
	// 30% of 8 = 2.4 → 2 slots.
	if !b.TryAcquire() || !b.TryAcquire() {
		t.Fatal("first two acquisitions should succeed")
	}
	if b.TryAcquire() {
		t.Fatal("third acquisition should be rejected")
	}
	if b.inFlight != 2 {
		t.Errorf("InFlight = %d, want 2", b.inFlight)
	}
	b.Release()
	if !b.TryAcquire() {
		t.Fatal("acquisition after release should succeed")
	}
}

func TestBudgetAlwaysAllowsAtLeastOne(t *testing.T) {
	b, err := NewBudget(2, 0.3) // 0.6 → floor 0 → min 1
	if err != nil {
		t.Fatalf("NewBudget: %v", err)
	}
	if !b.TryAcquire() {
		t.Fatal("budget must allow at least one reconfiguration")
	}
	if b.TryAcquire() {
		t.Fatal("second should be rejected")
	}
	b.Release()
	b.Release() // extra release is a no-op
	if b.inFlight != 0 {
		t.Errorf("InFlight = %d, want 0", b.inFlight)
	}
}

func TestBudgetValidation(t *testing.T) {
	if _, err := NewBudget(0, 0.3); err == nil {
		t.Error("zero GPUs accepted")
	}
	b, err := NewBudget(10, 5) // frac > 1 clamped
	if err != nil {
		t.Fatalf("NewBudget: %v", err)
	}
	for i := 0; i < 10; i++ {
		if !b.TryAcquire() {
			t.Fatalf("acquire %d rejected with frac clamped to 1", i)
		}
	}
	if b.TryAcquire() {
		t.Error("acquire beyond total accepted")
	}
}

func TestPlanTimeOccupancyEscalates(t *testing.T) {
	// A VHI best-effort model whose solo time explodes on small slices
	// must escalate past [1g, 2g] even though its memory fits
	// (Algorithm 2's T_high over slowdown, not just memory).
	p := New(Config{WaitLimit: -1})
	solo := func(prof gpu.Profile) float64 {
		switch prof.Name {
		case "1g":
			return 0.8
		case "2g":
			return 0.45
		default:
			return 0.3
		}
	}
	// 4 BE batches per 2 s window → 2 batches/s; [1g,2g] capacity
	// 1/0.8 + 1/0.45 ≈ 3.47 b/s → ρ 0.58 ≤ 0.75 stays. 8 batches →
	// ρ 1.15 escalates to [3g] (capacity 3.33, ρ 1.2 → fallback).
	d := p.Plan(PlanInput{
		Current:       geom("4g,2g,1g"),
		BEMemPerBatch: 2.5,
		PredBEBatches: 8,
		WindowSeconds: 2,
		BESolo:        solo,
	})
	if !d.Desired.Equal(geom("4g,3g")) {
		t.Errorf("desired = %s, want (4g, 3g) under time-occupancy pressure", d.Desired)
	}
	light := p.Plan(PlanInput{
		Current:       geom("4g,3g"),
		BEMemPerBatch: 2.5,
		PredBEBatches: 4,
		WindowSeconds: 2,
		BESolo:        solo,
	})
	if !light.Desired.Equal(geom("4g,2g,1g")) {
		t.Errorf("desired = %s, want (4g, 2g, 1g) at light BE load", light.Desired)
	}
}

// TestPlanDesiredIsShared: Plan hands out the planner's fixed geometry
// itself, read-only, so every planner returns the same value for the
// same choice and a planning window allocates nothing.
func TestPlanDesiredIsShared(t *testing.T) {
	in := PlanInput{Current: geom("7g"), BEMemPerBatch: 4, PredBEBatches: 2}
	p := New(Config{WaitLimit: -1})
	a := p.Plan(in).Desired
	b := New(Config{WaitLimit: -1}).Plan(in).Desired
	if a.String() != "(4g, 2g, 1g)" || &a[0] != &b[0] {
		t.Errorf("plans = %s at %p and %s at %p, want one shared (4g, 2g, 1g)", a, &a[0], b, &b[0])
	}
	if n := testing.AllocsPerRun(100, func() { p.Plan(in) }); n != 0 {
		t.Errorf("Plan allocates %v times per window, want 0", n)
	}
}
