package cluster

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"protean/internal/core"
	"protean/internal/model"
	"protean/internal/sim"
	"protean/internal/trace"
	"protean/internal/vm"
)

// genTrace builds a deterministic test trace.
func genTrace(t *testing.T, rps, duration float64, strictFrac float64, strict string, bePool []*model.Model, seed int64) []trace.Request {
	t.Helper()
	mix := trace.Mix{StrictFrac: strictFrac, Strict: model.MustByName(strict), BEPool: bePool}
	reqs, err := trace.Generate(trace.Config{
		Rate:     trace.Constant(rps),
		Mix:      mix,
		Duration: duration,
		Seed:     seed,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return reqs
}

func runCluster(t *testing.T, cfg Config, reqs []trace.Request, duration float64, seed int64) *Result {
	t.Helper()
	s := sim.New(seed)
	c, err := New(s, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := c.Run(reqs, duration)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestLightLoadFullCompliance(t *testing.T) {
	reqs := genTrace(t, 600, 20, 0.5, "ShuffleNet V2", model.VisionHI(), 1)
	res := runCluster(t, Config{Nodes: 2, Policy: core.NewProtean(core.ProteanConfig{}), Warmup: 10}, reqs, 20, 1)
	afterWarmup := 0
	for _, r := range reqs {
		if r.Arrival >= 10 {
			afterWarmup++
		}
	}
	if got := res.Recorder.Requests(); got != afterWarmup {
		t.Fatalf("served %d requests, want %d (post-warmup)", got, afterWarmup)
	}
	if got := res.Recorder.SLOCompliance(); got < 0.95 {
		t.Errorf("SLO compliance = %.3f, want >= 0.95 under light load", got)
	}
	if res.Dropped != 0 {
		t.Errorf("dropped = %d, want 0", res.Dropped)
	}
}

func TestAllRequestsAccounted(t *testing.T) {
	factories := map[string]core.Factory{
		"protean":  core.NewProtean(core.ProteanConfig{}),
		"molecule": core.NewMoleculeBeta(),
		"infless":  core.NewINFlessLlama(),
		"naive":    core.NewNaiveSlicing(nil),
		"migonly":  core.NewMIGOnly(nil),
		"gpulet":   core.NewGPUlet(0, 0),
		"oracle":   core.NewOracle(),
	}
	reqs := genTrace(t, 800, 15, 0.5, "ResNet 50", model.VisionLI(), 2)
	for name, f := range factories {
		f := f
		t.Run(name, func(t *testing.T) {
			res := runCluster(t, Config{Nodes: 2, Policy: f}, reqs, 15, 2)
			if got := res.Recorder.Requests() + res.Dropped; got != len(reqs) {
				t.Errorf("accounted %d of %d requests", got, len(reqs))
			}
		})
	}
}

func TestColdStartsOnlyDuringRampUp(t *testing.T) {
	// With delayed termination, cold starts happen only while the pool
	// ramps up: doubling the trace duration must not double them.
	short := genTrace(t, 500, 30, 1.0, "ResNet 50", nil, 3)
	long := genTrace(t, 500, 90, 1.0, "ResNet 50", nil, 3)
	cfg := Config{Nodes: 1, Policy: core.NewProtean(core.ProteanConfig{})}
	resShort := runCluster(t, cfg, short, 30, 3)
	resLong := runCluster(t, cfg, long, 90, 3)
	if resShort.ColdStarts <= 0 {
		t.Error("no cold starts at all")
	}
	if float64(resLong.ColdStarts) > 1.3*float64(resShort.ColdStarts) {
		t.Errorf("cold starts grew with duration: %d (30s) vs %d (90s); keep-alive not reusing containers",
			resShort.ColdStarts, resLong.ColdStarts)
	}
}

func TestImmediateScaleDownCausesManyColdStarts(t *testing.T) {
	reqs := genTrace(t, 500, 30, 1.0, "ResNet 50", nil, 3)
	cfg := Config{Nodes: 1, Policy: core.NewProtean(core.ProteanConfig{})}
	keep := runCluster(t, cfg, reqs, 30, 3)
	cfg.Scaler.Immediate = true
	immediate := runCluster(t, cfg, reqs, 30, 3)
	if immediate.ColdStarts <= keep.ColdStarts*2 {
		t.Errorf("immediate scale-down cold starts = %d, keep-alive = %d; expected a large gap",
			immediate.ColdStarts, keep.ColdStarts)
	}
}

func TestProteanReconfiguresUnderBEShift(t *testing.T) {
	// BE model rotates over HI models including DPN 92 (which cannot fit
	// the small slices) → Algorithm 2 must trigger geometry changes.
	mix := trace.Mix{
		StrictFrac:   0.5,
		Strict:       model.MustByName("ShuffleNet V2"),
		BEPool:       model.VisionHI(),
		RotatePeriod: 10,
	}
	reqs, err := trace.Generate(trace.Config{Rate: trace.Constant(1200), Mix: mix, Duration: 60, Seed: 4})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	res := runCluster(t, Config{Nodes: 2, Policy: core.NewProtean(core.ProteanConfig{})}, reqs, 60, 4)
	if res.Reconfigs == 0 {
		t.Error("PROTEAN never reconfigured despite shifting BE footprints")
	}
	if len(res.Timeline) <= 2 {
		t.Errorf("timeline has %d events, want initial + changes", len(res.Timeline))
	}
}

func TestStaticSchemesNeverReconfigure(t *testing.T) {
	reqs := genTrace(t, 800, 20, 0.5, "ResNet 50", model.VisionLI(), 5)
	for _, f := range []core.Factory{core.NewINFlessLlama(), core.NewNaiveSlicing(nil), core.NewMoleculeBeta()} {
		res := runCluster(t, Config{Nodes: 2, Policy: f}, reqs, 20, 5)
		if res.Reconfigs != 0 {
			t.Errorf("static scheme reconfigured %d times", res.Reconfigs)
		}
	}
}

func TestProteanBeatsINFlessOnHIModel(t *testing.T) {
	// The headline result: with an HI strict model at the saturation
	// knee, MPS-only consolidation suffers amplified interference that
	// PROTEAN avoids by isolating BE work on small slices.
	reqs := genTrace(t, 9000, 40, 0.5, "VGG 19", model.VisionLI(), 6)
	prewarm := append([]*model.Model{model.MustByName("VGG 19")}, model.VisionLI()...)
	cfgP := Config{Nodes: 8, Policy: core.NewProtean(core.ProteanConfig{}), Warmup: 15, PreWarm: prewarm}
	cfgI := Config{Nodes: 8, Policy: core.NewINFlessLlama(), Warmup: 15, PreWarm: prewarm}
	p := runCluster(t, cfgP, reqs, 40, 6)
	i := runCluster(t, cfgI, reqs, 40, 6)
	pc, ic := p.Recorder.SLOCompliance(), i.Recorder.SLOCompliance()
	if pc <= ic {
		t.Errorf("PROTEAN compliance %.3f <= INFless/Llama %.3f", pc, ic)
	}
	pTail := p.Recorder.Strict().Percentile(99)
	iTail := i.Recorder.Strict().Percentile(99)
	if pTail >= iTail {
		t.Errorf("PROTEAN P99 %.3f >= INFless/Llama P99 %.3f", pTail, iTail)
	}
}

func TestUtilizationReported(t *testing.T) {
	reqs := genTrace(t, 1000, 20, 0.5, "ResNet 50", model.VisionLI(), 7)
	res := runCluster(t, Config{Nodes: 2, Policy: core.NewProtean(core.ProteanConfig{})}, reqs, 20, 7)
	if res.ComputeUtil <= 0 || res.ComputeUtil > 1 {
		t.Errorf("compute utilization = %v", res.ComputeUtil)
	}
	if res.MemUtil <= 0 || res.MemUtil > 1 {
		t.Errorf("memory utilization = %v", res.MemUtil)
	}
}

func TestSpotPreferredFleetKeepsServing(t *testing.T) {
	reqs := genTrace(t, 800, 60, 0.5, "ResNet 50", model.VisionLI(), 8)
	cfg := Config{
		Nodes:  2,
		Policy: core.NewProtean(core.ProteanConfig{}),
		Warmup: 15,
		VM: &vm.Config{
			Mode:          vm.ModeSpotPreferred,
			Availability:  vm.AvailabilityModerate,
			CheckInterval: 15,
		},
	}
	res := runCluster(t, cfg, reqs, 60, 8)
	if res.Cost == nil {
		t.Fatal("no cost report with a fleet")
	}
	if res.Cost.Normalized >= 1 {
		t.Errorf("normalized cost = %v, want < 1 with spot usage", res.Cost.Normalized)
	}
	if res.Recorder.Requests() == 0 {
		t.Error("no requests recorded")
	}
	if got := res.Recorder.SLOCompliance(); got < 0.9 {
		t.Errorf("SLO compliance = %.3f under spot-preferred, want >= 0.9", got)
	}
}

func TestSpotOnlyLowAvailabilityDegrades(t *testing.T) {
	reqs := genTrace(t, 1200, 90, 0.5, "ResNet 50", model.VisionLI(), 9)
	base := Config{Nodes: 2, Policy: core.NewProtean(core.ProteanConfig{}), Warmup: 15}
	spotOnly := base
	spotOnly.VM = &vm.Config{
		Mode:          vm.ModeSpotOnly,
		Availability:  vm.AvailabilityLow,
		CheckInterval: 15,
	}
	hybrid := base
	hybrid.VM = &vm.Config{
		Mode:          vm.ModeSpotPreferred,
		Availability:  vm.AvailabilityLow,
		CheckInterval: 15,
	}
	so := runCluster(t, spotOnly, reqs, 90, 9)
	hy := runCluster(t, hybrid, reqs, 90, 9)
	soC, hyC := so.Recorder.SLOCompliance(), hy.Recorder.SLOCompliance()
	if !(soC < hyC) {
		t.Errorf("spot-only compliance %.3f not below hybrid %.3f at low availability", soC, hyC)
	}
	if so.Cost.Dollars >= hy.Cost.Dollars {
		t.Errorf("spot-only cost %.2f >= hybrid %.2f", so.Cost.Dollars, hy.Cost.Dollars)
	}
}

func TestValidation(t *testing.T) {
	s := sim.New(1)
	if _, err := New(nil, Config{Nodes: 1, Policy: core.NewMoleculeBeta()}); err == nil {
		t.Error("nil sim accepted")
	}
	if _, err := New(s, Config{Nodes: 0, Policy: core.NewMoleculeBeta()}); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := New(s, Config{Nodes: 1}); err == nil {
		t.Error("nil policy accepted")
	}
	c, err := New(s, Config{Nodes: 1, Policy: core.NewMoleculeBeta()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := c.Run(nil, 0); err == nil {
		t.Error("zero duration accepted")
	}
}

// TestRunRejectsBadHorizon: a NaN or infinite horizon would never end
// the run, so both entry points must refuse it, as they refuse a
// negative one, whether or not the policy reads the window view.
func TestRunRejectsBadHorizon(t *testing.T) {
	reqs := genTrace(t, 100, 5, 0.5, "ResNet 50", nil, 3)
	policies := map[string]core.Factory{"protean": core.NewProtean(core.ProteanConfig{}), "oracle": core.NewOracle()}
	for _, tc := range []struct {
		name     string
		duration float64
	}{
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"-1", -1},
	} {
		for _, pname := range []string{"protean", "oracle"} {
			for _, stream := range []bool{false, true} {
				s := sim.New(1)
				c, err := New(s, Config{Nodes: 1, Policy: policies[pname]})
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				var res *Result
				if stream {
					st, serr := trace.NewStream(trace.Config{
						Rate:     trace.Constant(100),
						Mix:      trace.Mix{StrictFrac: 0.5, Strict: model.MustByName("ResNet 50")},
						Duration: 5,
						Seed:     3,
					})
					if serr != nil {
						t.Fatalf("NewStream: %v", serr)
					}
					res, err = c.RunStream(st, tc.duration)
				} else {
					res, err = c.Run(reqs, tc.duration)
				}
				if err == nil || res != nil {
					t.Errorf("%s, %s, stream %v: got (%v, %v), want an error", tc.name, pname, stream, res, err)
				}
			}
		}
	}
}

// TestLookaheadOnlyForOracle: the window view is derived from the trace
// only for a policy that reads it.
func TestLookaheadOnlyForOracle(t *testing.T) {
	reqs := genTrace(t, 400, 10, 0.5, "ResNet 50", nil, 4)
	for _, tc := range []struct {
		name    string
		policy  core.Factory
		windows bool
	}{
		{"protean", core.NewProtean(core.ProteanConfig{}), false},
		{"oracle", core.NewOracle(), true},
	} {
		c, err := New(sim.New(1), Config{Nodes: 2, Policy: tc.policy})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if _, err := c.Run(reqs, 10); err != nil {
			t.Fatalf("%s: Run: %v", tc.name, err)
		}
		if got := c.windowBEBatches != nil; got != tc.windows {
			t.Errorf("%s: window view derived = %v, want %v", tc.name, got, tc.windows)
		}
	}
}

func TestBreakdownConsistency(t *testing.T) {
	reqs := genTrace(t, 900, 20, 0.5, "VGG 19", model.VisionLI(), 10)
	res := runCluster(t, Config{Nodes: 1, Policy: core.NewINFlessLlama()}, reqs, 20, 10)
	sum := res.Recorder.Summarize()
	total := sum.P99Breakdown.Total()
	if math.Abs(total-sum.P99) > 1e-6 {
		t.Errorf("P99 breakdown total %.4f != P99 latency %.4f", total, sum.P99)
	}
}

func TestOracleAtLeastAsGoodAsProtean(t *testing.T) {
	reqs := genTrace(t, 1400, 40, 0.5, "ResNet 50", model.VisionLI(), 11)
	p := runCluster(t, Config{Nodes: 2, Policy: core.NewProtean(core.ProteanConfig{})}, reqs, 40, 11)
	o := runCluster(t, Config{Nodes: 2, Policy: core.NewOracle()}, reqs, 40, 11)
	pc, oc := p.Recorder.SLOCompliance(), o.Recorder.SLOCompliance()
	if oc < pc-0.03 {
		t.Errorf("Oracle compliance %.4f well below PROTEAN %.4f", oc, pc)
	}
}

// TestArrivalsSortedMatchesIsSortedFunc asserts Run's sortedness check
// sends exactly the traces slices.IsSortedFunc(reqs, byArrival) rejects
// to the sort-a-copy path: an unsorted trace, and a NaN arrival after a
// number, which cmp.Compare orders before every number.
func TestArrivalsSortedMatchesIsSortedFunc(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		arrivals []float64
		sorted   bool
	}{
		{nil, true},
		{[]float64{1}, true},
		{[]float64{0, 1, 1, 2}, true},
		{[]float64{math.Copysign(0, -1), 0, math.Copysign(0, -1)}, true},
		{[]float64{-inf, 0, inf}, true},
		{[]float64{2, 1}, false},
		{[]float64{0, 1, 3, 2, 4}, false},
		{[]float64{nan, nan, 0, 1}, true},
		{[]float64{1, nan}, false},
		{[]float64{0, nan, 1}, false},
		{[]float64{nan, 1, nan}, false},
	} {
		reqs := make([]trace.Request, len(tc.arrivals))
		for i, a := range tc.arrivals {
			reqs[i].Arrival = a
		}
		if got, ref := arrivalsSorted(reqs), slices.IsSortedFunc(reqs, byArrival); got != tc.sorted || ref != tc.sorted {
			t.Errorf("arrivals %v: arrivalsSorted %v, IsSortedFunc %v, want %v", tc.arrivals, got, ref, tc.sorted)
		}
	}
}

// TestRunSortsUnsortedTraceInACopy feeds Run an unsorted trace with
// tied arrivals. It must give the same Result as the same trace stably
// sorted beforehand, and leave the caller's slice as it was: runs that
// replay one shared trace rely on that.
func TestRunSortsUnsortedTraceInACopy(t *testing.T) {
	reqs := genTrace(t, 400, 10, 0.5, "ResNet 50", nil, 2)
	for i := 0; i+1 < len(reqs); i += 3 {
		reqs[i+1].Arrival = reqs[i].Arrival // a strict/BE or model tie
	}
	unsorted := slices.Clone(reqs)
	slices.Reverse(unsorted)
	presorted := slices.Clone(unsorted)
	sort.SliceStable(presorted, func(i, j int) bool { return presorted[i].Arrival < presorted[j].Arrival })
	if slices.Equal(presorted, reqs) {
		t.Fatal("no tie separates the stable order from the original one")
	}
	before := slices.Clone(unsorted)

	cfg := func() Config {
		return Config{Nodes: 2, Policy: core.NewProtean(core.ProteanConfig{}), Warmup: 2}
	}
	got := runCluster(t, cfg(), unsorted, 10, 1)
	want := runCluster(t, cfg(), presorted, 10, 1)
	if !slices.Equal(unsorted, before) {
		t.Error("Run modified the caller's trace")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("unsorted trace: %+v\npresorted trace: %+v", got.Recorder.Summarize(), want.Recorder.Summarize())
	}
}
