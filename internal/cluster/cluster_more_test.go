package cluster

import (
	"math"
	"testing"

	"protean/internal/core"
	"protean/internal/model"
	"protean/internal/sim"
	"protean/internal/trace"
	"protean/internal/vm"
)

func TestClusterRunDeterministic(t *testing.T) {
	reqs := genTrace(t, 1500, 30, 0.5, "ResNet 50", model.VisionLI(), 21)
	run := func() (float64, float64) {
		res := runCluster(t, Config{Nodes: 2, Policy: core.NewProtean(core.ProteanConfig{})}, reqs, 30, 21)
		return res.Recorder.SLOCompliance(), res.Recorder.Strict().Percentile(99)
	}
	c1, p1 := run()
	c2, p2 := run()
	if c1 != c2 || p1 != p2 {
		t.Errorf("non-deterministic: (%v, %v) vs (%v, %v)", c1, p1, c2, p2)
	}
}

func TestDisplacedJobsSurviveReconfiguration(t *testing.T) {
	// Force frequent reconfiguration (rotating heavy BE) and verify that
	// no request is lost across geometry changes.
	mix := trace.Mix{
		StrictFrac:   0.5,
		Strict:       model.MustByName("ShuffleNet V2"),
		BEPool:       model.VisionHI(),
		RotatePeriod: 8,
	}
	reqs, err := trace.Generate(trace.Config{Rate: trace.Constant(2000), Mix: mix, Duration: 45, Seed: 22})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	res := runCluster(t, Config{Nodes: 2, Policy: core.NewProtean(core.ProteanConfig{})}, reqs, 45, 22)
	if res.Reconfigs == 0 {
		t.Fatal("no reconfigurations happened; scenario broken")
	}
	if got := res.Recorder.Requests() + res.Dropped; got != len(reqs) {
		t.Errorf("accounted %d of %d requests across %d reconfigs", got, len(reqs), res.Reconfigs)
	}
	if res.Dropped > 0 {
		t.Errorf("dropped %d requests during reconfiguration", res.Dropped)
	}
}

func TestOracleZeroDowntimeInstalled(t *testing.T) {
	s := sim.New(1)
	c, err := New(s, Config{Nodes: 1, Policy: core.NewOracle()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := c.nodes[0].gpu.ReconfigDowntime; got != 0 {
		t.Errorf("oracle downtime = %v, want 0", got)
	}
	c2, err := New(s, Config{Nodes: 1, Policy: core.NewProtean(core.ProteanConfig{})})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := c2.nodes[0].gpu.ReconfigDowntime; got <= 0 {
		t.Errorf("PROTEAN downtime = %v, want > 0", got)
	}
}

func TestReorderInstalledPerPolicy(t *testing.T) {
	s := sim.New(1)
	c, err := New(s, Config{Nodes: 1, Policy: core.NewProtean(core.ProteanConfig{})})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if !c.nodes[0].gpu.ReorderPending {
		t.Error("PROTEAN node without pending reordering")
	}
	c2, err := New(s, Config{Nodes: 1, Policy: core.NewINFlessLlama()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if c2.nodes[0].gpu.ReorderPending {
		t.Error("INFless node with pending reordering")
	}
}

func TestFleetEvictionEvacuatesWork(t *testing.T) {
	// Spot VMs are revoked at half the checks; the hybrid fleet must
	// keep serving by drain-and-replace without losing requests.
	reqs := genTrace(t, 1200, 60, 0.5, "ShuffleNet V2", model.VisionLI(), 23)
	cfg := Config{
		Nodes:  3,
		Policy: core.NewProtean(core.ProteanConfig{}),
		VM: &vm.Config{
			Mode:          vm.ModeSpotPreferred,
			Availability:  vm.Availability{Name: "stress", PRev: 0.5},
			CheckInterval: 10,
		},
	}
	res := runCluster(t, cfg, reqs, 60, 23)
	if got := res.Recorder.Requests() + res.Dropped; got != len(reqs) {
		t.Errorf("accounted %d of %d requests under eviction stress", got, len(reqs))
	}
	if res.EvictionNotices == 0 {
		t.Error("no eviction notices at P_rev = 0.9")
	}
	if res.Dropped > len(reqs)/100 {
		t.Errorf("dropped %d requests (>1%%) under hybrid procurement", res.Dropped)
	}
}

func TestWarmupBoundsMetricsWindow(t *testing.T) {
	reqs := genTrace(t, 700, 20, 0.5, "ResNet 50", model.VisionLI(), 24)
	full := runCluster(t, Config{Nodes: 2, Policy: core.NewINFlessLlama()}, reqs, 20, 24)
	warm := runCluster(t, Config{Nodes: 2, Policy: core.NewINFlessLlama(), Warmup: 10}, reqs, 20, 24)
	if warm.Recorder.Requests() >= full.Recorder.Requests() {
		t.Errorf("warmup did not reduce recorded requests: %d vs %d",
			warm.Recorder.Requests(), full.Recorder.Requests())
	}
	// Warmup excludes the cold-start ramp, so compliance cannot drop.
	if warm.Recorder.SLOCompliance() < full.Recorder.SLOCompliance()-1e-9 {
		t.Errorf("warmup lowered compliance: %v vs %v",
			warm.Recorder.SLOCompliance(), full.Recorder.SLOCompliance())
	}
}

func TestBreakdownNonNegativeAcrossSchemes(t *testing.T) {
	reqs := genTrace(t, 2500, 20, 0.5, "VGG 19", model.VisionLI(), 25)
	for _, f := range []core.Factory{
		core.NewProtean(core.ProteanConfig{}),
		core.NewINFlessLlama(),
		core.NewMoleculeBeta(),
		core.NewNaiveSlicing(nil),
		core.NewGPUlet(0, 0),
	} {
		res := runCluster(t, Config{Nodes: 2, Policy: f}, reqs, 20, 25)
		for _, p := range []float64{50, 90, 99} {
			b := res.Recorder.Strict().BreakdownAtPercentile(p)
			for name, v := range map[string]float64{
				"queue": b.Queue, "cold": b.ColdStart, "min": b.MinPossible,
				"deficiency": b.Deficiency, "interference": b.Interference,
			} {
				if v < 0 || math.IsNaN(v) {
					t.Errorf("P%.0f breakdown %s = %v", p, name, v)
				}
			}
		}
	}
}

func TestGeometryTimelineWellFormed(t *testing.T) {
	mix := trace.Mix{
		StrictFrac:   0.5,
		Strict:       model.MustByName("ShuffleNet V2"),
		BEPool:       model.VisionHI(),
		RotatePeriod: 8,
	}
	reqs, err := trace.Generate(trace.Config{Rate: trace.Constant(2000), Mix: mix, Duration: 40, Seed: 26})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	res := runCluster(t, Config{Nodes: 4, Policy: core.NewProtean(core.ProteanConfig{})}, reqs, 40, 26)
	if len(res.Timeline) < 4 {
		t.Fatalf("timeline = %d events, want at least the initial 4", len(res.Timeline))
	}
	prev := -1.0
	for _, ev := range res.Timeline {
		if ev.Time < prev {
			t.Error("timeline not ordered")
		}
		prev = ev.Time
		if ev.Node < 0 || ev.Node >= 4 {
			t.Errorf("timeline node %d out of range", ev.Node)
		}
		if ev.Geometry == "" {
			t.Error("empty geometry string")
		}
	}
}
