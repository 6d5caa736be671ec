package core

import (
	"errors"
	"math"
	"testing"

	"protean/internal/gpu"
	"protean/internal/model"
	"protean/internal/sim"
)

func newGPU(t *testing.T, geom gpu.Geometry, mode gpu.SharingMode) (*sim.Sim, *gpu.GPU) {
	t.Helper()
	s := sim.New(1)
	g, err := gpu.NewGPU(s, 0, gpu.ArchA100(), geom, mode)
	if err != nil {
		t.Fatalf("NewGPU: %v", err)
	}
	return s, g
}

func TestSlowdownEmptySliceIsRDF(t *testing.T) {
	_, g := newGPU(t, gpu.MustGeometry(gpu.Profile4g, gpu.Profile3g), gpu.ShareMPS)
	m := model.MustByName("ShuffleNet V2") // FBR 0.15 → below the floor
	for _, sl := range g.Slices() {
		want := m.RDF(sl.Prof) // max(0.15, 1) = 1
		if got := Slowdown(sl, m, 0); math.Abs(got-want) > 1e-9 {
			t.Errorf("slice %s: η = %v, want %v", sl.Prof.Name, got, want)
		}
	}
}

func TestSlowdownCountsResidentJobs(t *testing.T) {
	s, g := newGPU(t, gpu.MustGeometry(gpu.Profile7g), gpu.ShareMPS)
	sl := g.Slices()[0]
	resident := model.MustByName("VGG 19") // FBR 0.93
	if err := sl.Submit(&gpu.Job{W: resident}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	_ = s
	incoming := model.MustByName("ResNet 50") // FBR 0.86, sensitivity 0.10
	// VGG 19 pollutes at 0.95: contribution = 0.93×(1+4×0.95×0.10).
	want := 0.86 + 0.93*(1+4*0.95*0.10)
	if got := Slowdown(sl, incoming, 0); math.Abs(got-want) > 1e-9 {
		t.Errorf("η = %v, want %v", got, want)
	}
	// Tagged BE pressure is assumed fully polluting: +0.5×(1+4×0.10).
	wantTag := want + 0.5*(1+4*0.10)
	if got := Slowdown(sl, incoming, 0.5); math.Abs(got-wantTag) > 1e-9 {
		t.Errorf("η with tag = %v, want %v", got, wantTag)
	}
}

func TestTagSlicesPacksAscending(t *testing.T) {
	_, g := newGPU(t, gpu.MustGeometry(gpu.Profile4g, gpu.Profile2g, gpu.Profile1g), gpu.ShareMPS)
	// 12 GB of BE work: 1g (5 GB) fully tagged, 2g (10 GB) tagged 0.7,
	// 4g untagged.
	tags := TagSlices(g, 12)
	byName := map[string]float64{}
	for sl, tag := range tags {
		byName[sl.Prof.Name] = tag
	}
	if got := byName["1g"]; math.Abs(got-1.0) > 1e-9 {
		t.Errorf("1g tag = %v, want 1.0", got)
	}
	if got := byName["2g"]; math.Abs(got-0.7) > 1e-9 {
		t.Errorf("2g tag = %v, want 0.7", got)
	}
	if _, tagged := byName["4g"]; tagged {
		t.Error("4g should be untagged")
	}
}

func TestTagSlicesNoBEMem(t *testing.T) {
	_, g := newGPU(t, gpu.MustGeometry(gpu.Profile4g, gpu.Profile3g), gpu.ShareMPS)
	if tags := TagSlices(g, 0); len(tags) != 0 {
		t.Errorf("tags = %v, want empty", tags)
	}
}

// TestTagSlicesNoBEMemAllocatesNothing: most placements find no BE
// memory queued, and tagging them must not build a map.
func TestTagSlicesNoBEMemAllocatesNothing(t *testing.T) {
	_, g := newGPU(t, gpu.MustGeometry(gpu.Profile4g, gpu.Profile3g), gpu.ShareMPS)
	if n := testing.AllocsPerRun(100, func() { TagSlices(g, 0) }); n != 0 {
		t.Errorf("TagSlices(g, 0) allocates %v times, want 0", n)
	}
}

func TestChooseStrictSliceAvoidsBESaturatedSlices(t *testing.T) {
	_, g := newGPU(t, gpu.MustGeometry(gpu.Profile4g, gpu.Profile3g), gpu.ShareMPS)
	d := Distributor{}
	m := model.MustByName("ResNet 50")
	// Tag the 3g slice fully with BE work; strict must go to 4g even
	// though both are idle.
	tags := map[*gpu.Slice]float64{}
	for _, sl := range g.Slices() {
		if sl.Prof.Name == "3g" {
			tags[sl] = 1.0
		}
	}
	sl, err := d.ChooseStrictSlice(g, m, tags)
	if err != nil {
		t.Fatalf("ChooseStrictSlice: %v", err)
	}
	if sl.Prof.Name != "4g" {
		t.Errorf("chose %s, want 4g", sl.Prof.Name)
	}
}

func TestChooseStrictSliceTradesOffInterferenceVsDeficiency(t *testing.T) {
	// The 4g slice is crowded with strict HI jobs; a fresh strict
	// ResNet 50 should prefer the emptier 3g despite its higher RDF.
	s, g := newGPU(t, gpu.MustGeometry(gpu.Profile4g, gpu.Profile3g), gpu.ShareMPS)
	_ = s
	var sl4 *gpu.Slice
	for _, sl := range g.Slices() {
		if sl.Prof.Name == "4g" {
			sl4 = sl
		}
	}
	vgg := model.MustByName("VGG 19")
	for i := 0; i < 2; i++ {
		if err := sl4.Submit(&gpu.Job{W: vgg, Strict: true}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	d := Distributor{}
	m := model.MustByName("ResNet 50")
	// η(4g) amplifies two polluting VGG co-runners far above
	// η(3g) ≈ RDF(3g) on the idle slice.
	sl, err := d.ChooseStrictSlice(g, m, nil)
	if err != nil {
		t.Fatalf("ChooseStrictSlice: %v", err)
	}
	if sl.Prof.Name != "3g" {
		t.Errorf("chose %s, want 3g (interference outweighs deficiency)", sl.Prof.Name)
	}
}

func TestChooseStrictSliceFallsBackWhenAllTagged(t *testing.T) {
	_, g := newGPU(t, gpu.MustGeometry(gpu.Profile4g, gpu.Profile3g), gpu.ShareMPS)
	d := Distributor{}
	m := model.MustByName("ResNet 50")
	tags := map[*gpu.Slice]float64{}
	for _, sl := range g.Slices() {
		tags[sl] = 1.0
	}
	sl, err := d.ChooseStrictSlice(g, m, tags)
	if err != nil {
		t.Fatalf("ChooseStrictSlice: %v", err)
	}
	if sl == nil {
		t.Fatal("no slice despite fallback")
	}
}

func TestChooseStrictSliceRespectsMemoryFit(t *testing.T) {
	_, g := newGPU(t, gpu.MustGeometry(gpu.Profile4g, gpu.Profile2g, gpu.Profile1g), gpu.ShareMPS)
	d := Distributor{}
	dpn := model.MustByName("DPN 92") // ~12.3 GB on slices: only 4g fits
	sl, err := d.ChooseStrictSlice(g, dpn, nil)
	if err != nil {
		t.Fatalf("ChooseStrictSlice: %v", err)
	}
	if sl.Prof.Name != "4g" {
		t.Errorf("chose %s, want 4g (only fitting slice)", sl.Prof.Name)
	}
}

func TestChooseBestEffortSlicePacksSmallestFirst(t *testing.T) {
	_, g := newGPU(t, gpu.MustGeometry(gpu.Profile4g, gpu.Profile2g, gpu.Profile1g), gpu.ShareMPS)
	d := Distributor{}
	m := model.MustByName("ShuffleNet V2") // 1.8 GB on slices
	sl, err := d.ChooseBestEffortSlice(g, m)
	if err != nil {
		t.Fatalf("ChooseBestEffortSlice: %v", err)
	}
	if sl.Prof.Name != "1g" {
		t.Errorf("chose %s, want 1g (fewest, smallest)", sl.Prof.Name)
	}
}

func TestChooseBestEffortSliceSpillsWhenFull(t *testing.T) {
	s, g := newGPU(t, gpu.MustGeometry(gpu.Profile4g, gpu.Profile2g, gpu.Profile1g), gpu.ShareMPS)
	_ = s
	d := Distributor{}
	m := model.MustByName("ShuffleNet V2") // 1.8 GB
	var sl1 *gpu.Slice
	for _, sl := range g.Slices() {
		if sl.Prof.Name == "1g" {
			sl1 = sl
		}
	}
	// Fill the 1g slice (5 GB): two 1.8 GB batches running leaves 1.4 GB.
	for i := 0; i < 2; i++ {
		if err := sl1.Submit(&gpu.Job{W: m}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	sl, err := d.ChooseBestEffortSlice(g, m)
	if err != nil {
		t.Fatalf("ChooseBestEffortSlice: %v", err)
	}
	if sl.Prof.Name != "2g" {
		t.Errorf("chose %s, want 2g (spill to next smallest)", sl.Prof.Name)
	}
}

func TestProteanPolicyBasics(t *testing.T) {
	p := NewProtean(ProteanConfig{})()
	if p.Name() != "PROTEAN" {
		t.Errorf("name = %s", p.Name())
	}
	if p.Sharing() != gpu.ShareMPS {
		t.Error("PROTEAN must use MPS")
	}
	if !p.ReorderRequests() {
		t.Error("PROTEAN must reorder requests")
	}
	want := gpu.MustGeometry(gpu.Profile4g, gpu.Profile2g, gpu.Profile1g)
	if !p.InitialGeometry().Equal(want) {
		t.Errorf("initial geometry = %s, want %s", p.InitialGeometry(), want)
	}
	if p.SMCap(true) != 0 {
		t.Error("PROTEAN must not cap SMs")
	}
}

func TestProteanPlaceSeparatesClasses(t *testing.T) {
	_, g := newGPU(t, gpu.MustGeometry(gpu.Profile4g, gpu.Profile2g, gpu.Profile1g), gpu.ShareMPS)
	p := NewProtean(ProteanConfig{})()
	strictSlice, err := p.Place(g, model.MustByName("ResNet 50"), true)
	if err != nil {
		t.Fatalf("Place strict: %v", err)
	}
	beSlice, err := p.Place(g, model.MustByName("ShuffleNet V2"), false)
	if err != nil {
		t.Fatalf("Place BE: %v", err)
	}
	if strictSlice.Prof.Slots <= beSlice.Prof.Slots {
		t.Errorf("strict on %s, BE on %s: strict should get the larger slice",
			strictSlice.Prof.Name, beSlice.Prof.Name)
	}
}

func TestProteanDesiredGeometryConverges(t *testing.T) {
	_, g := newGPU(t, gpu.MustGeometry(gpu.Profile4g, gpu.Profile2g, gpu.Profile1g), gpu.ShareMPS)
	p := NewProtean(ProteanConfig{})()
	// Sustained heavy BE load (DPN 92-like): 3 batches × 12.3 GB ≈ 37 GB
	// won't fit [1g,2g] or [3g] → (4g, 3g) fallback after the wait limit.
	view := QueueView{BEBatchesLastWindow: 3, BEMemPerBatch: 12.3}
	var want gpu.Geometry
	fired := false
	for i := 0; i < 10; i++ {
		geom, doIt := p.DesiredGeometry(g, view)
		if doIt {
			fired = true
			want = geom
			break
		}
	}
	if !fired {
		t.Fatal("reconfiguration never triggered under sustained mismatch")
	}
	if !want.Equal(gpu.MustGeometry(gpu.Profile4g, gpu.Profile3g)) {
		t.Errorf("desired = %s, want (4g, 3g)", want)
	}
}

func TestProteanAblationsDisableFeatures(t *testing.T) {
	p := NewProtean(ProteanConfig{DisableReorder: true, DisableDynamicReconfig: true})()
	if p.ReorderRequests() {
		t.Error("reorder not disabled")
	}
	_, g := newGPU(t, p.InitialGeometry(), gpu.ShareMPS)
	if _, doIt := p.DesiredGeometry(g, QueueView{BEBatchesLastWindow: 50, BEMemPerBatch: 12}); doIt {
		t.Error("reconfig not disabled")
	}
}

func TestOracleOverridesAndPredicts(t *testing.T) {
	f := NewOracle()
	p := f()
	if p.Name() != "Oracle" {
		t.Errorf("name = %s", p.Name())
	}
	ov, ok := p.(DowntimeOverrider)
	if !ok {
		t.Fatal("Oracle must override downtime")
	}
	if d, set := ov.ReconfigDowntime(); !set || d != 0 {
		t.Errorf("downtime = %v/%v, want 0/true", d, set)
	}
	// Perfect prediction reacts in one window (no hysteresis).
	_, g := newGPU(t, p.InitialGeometry(), gpu.ShareMPS)
	view := QueueView{NextWindowBEBatches: 3, NextWindowBEMemPerBatch: 12.3}
	geom, doIt := p.DesiredGeometry(g, view)
	if !doIt {
		t.Fatal("oracle did not reconfigure immediately")
	}
	if !geom.Equal(gpu.MustGeometry(gpu.Profile4g, gpu.Profile3g)) {
		t.Errorf("desired = %s, want (4g, 3g)", geom)
	}
}

func TestBaselineProperties(t *testing.T) {
	tests := []struct {
		factory Factory
		name    string
		mode    gpu.SharingMode
		slices  int
		reorder bool
	}{
		{NewMoleculeBeta(), "Molecule (beta)", gpu.ShareTimeSlice, 1, false},
		{NewINFlessLlama(), "INFless/Llama", gpu.ShareMPS, 1, false},
		{NewNaiveSlicing(nil), "Naive Slicing", gpu.ShareMPS, 3, false},
		{NewMIGOnly(nil), "MIG Only", gpu.ShareTimeSlice, 3, false},
		{NewMPSMIG(nil), "MPS+MIG", gpu.ShareMPS, 2, false},
		{NewSmartMPSMIG(nil), "'Smart' MPS+MIG", gpu.ShareMPS, 2, false},
		{NewNoSharing(), "No MPS or MIG", gpu.ShareTimeSlice, 1, false},
		{NewMPSOnly(), "MPS Only", gpu.ShareMPS, 1, false},
		{NewGPUlet(0, 0), "GPUlet", gpu.ShareMPS, 1, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := tt.factory()
			if p.Name() != tt.name {
				t.Errorf("name = %s, want %s", p.Name(), tt.name)
			}
			if p.Sharing() != tt.mode {
				t.Errorf("mode = %v, want %v", p.Sharing(), tt.mode)
			}
			if got := len(p.InitialGeometry()); got != tt.slices {
				t.Errorf("slices = %d, want %d", got, tt.slices)
			}
			if p.ReorderRequests() != tt.reorder {
				t.Errorf("reorder = %v, want %v", p.ReorderRequests(), tt.reorder)
			}
			_, g := newGPU(t, p.InitialGeometry(), p.Sharing())
			if _, doIt := p.DesiredGeometry(g, QueueView{BEBatchesLastWindow: 10, BEMemPerBatch: 12}); doIt {
				t.Error("static scheme requested reconfiguration")
			}
			if _, err := p.Place(g, model.MustByName("ResNet 50"), true); err != nil {
				t.Errorf("Place: %v", err)
			}
		})
	}
}

func TestGPUletCaps(t *testing.T) {
	p := NewGPUlet(0, 0)()
	if got := p.SMCap(true); math.Abs(got-0.625) > 1e-9 {
		t.Errorf("strict cap = %v, want 0.625", got)
	}
	if got := p.SMCap(false); math.Abs(got-0.375) > 1e-9 {
		t.Errorf("BE cap = %v, want 0.375", got)
	}
	custom := NewGPUlet(0.6, 0.4)()
	if custom.SMCap(true) != 0.6 || custom.SMCap(false) != 0.4 {
		t.Error("custom caps not honoured")
	}
}

func TestSmartMPSMIGIsolatesClasses(t *testing.T) {
	p := NewSmartMPSMIG(nil)()
	_, g := newGPU(t, p.InitialGeometry(), gpu.ShareMPS)
	st, err := p.Place(g, model.MustByName("ResNet 50"), true)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	be, err := p.Place(g, model.MustByName("ShuffleNet V2"), false)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if st.Prof.Name != "4g" || be.Prof.Name != "3g" {
		t.Errorf("strict on %s / BE on %s, want 4g / 3g", st.Prof.Name, be.Prof.Name)
	}
}

func TestMIGOnlyRoundRobins(t *testing.T) {
	p := NewMIGOnly(nil)()
	_, g := newGPU(t, p.InitialGeometry(), gpu.ShareTimeSlice)
	m := model.MustByName("ShuffleNet V2")
	seen := map[string]int{}
	for i := 0; i < 6; i++ {
		sl, err := p.Place(g, m, true)
		if err != nil {
			t.Fatalf("Place: %v", err)
		}
		seen[sl.Prof.Name]++
	}
	if len(seen) != 3 {
		t.Errorf("round robin used %v, want all 3 slices", seen)
	}
}

func TestPlaceErrorsWhenNothingFits(t *testing.T) {
	p := NewMIGOnly(gpu.MustGeometry(gpu.Profile1g, gpu.Profile1g))()
	_, g := newGPU(t, p.InitialGeometry(), gpu.ShareTimeSlice)
	_, err := p.Place(g, model.MustByName("DPN 92"), true)
	if !errors.Is(err, ErrNoSlice) {
		t.Errorf("err = %v, want ErrNoSlice", err)
	}
}

func TestBEFairPlacementUsesSlowdownModel(t *testing.T) {
	// Packing sends BE to the smallest fitting slice; the BE-fair
	// variant (the paper's §6.2 future-work item) places by minimal η,
	// which for an idle GPU is the largest slice.
	_, g := newGPU(t, gpu.MustGeometry(gpu.Profile4g, gpu.Profile2g, gpu.Profile1g), gpu.ShareMPS)
	packer := NewProtean(ProteanConfig{})()
	fair := NewProtean(ProteanConfig{BEFairPlacement: true})()
	m := model.MustByName("ShuffleNet V2")

	packed, err := packer.Place(g, m, false)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if packed.Prof.Name != "1g" {
		t.Errorf("packing placed BE on %s, want 1g", packed.Prof.Name)
	}
	spread, err := fair.Place(g, m, false)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if spread.Prof.Slots <= packed.Prof.Slots {
		t.Errorf("BE-fair placed on %s, want a larger slice than %s",
			spread.Prof.Name, packed.Prof.Name)
	}
}

func TestNaiveStrictPlacementIgnoresLoad(t *testing.T) {
	s, g := newGPU(t, gpu.MustGeometry(gpu.Profile4g, gpu.Profile3g), gpu.ShareMPS)
	_ = s
	// Crowd the 4g slice; naive placement still picks it.
	var sl4 *gpu.Slice
	for _, sl := range g.Slices() {
		if sl.Prof.Name == "4g" {
			sl4 = sl
		}
	}
	vgg := model.MustByName("VGG 19")
	for i := 0; i < 2; i++ {
		if err := sl4.Submit(&gpu.Job{W: vgg, Strict: true}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	naive := NewProtean(ProteanConfig{NaiveStrictPlacement: true})()
	sl, err := naive.Place(g, model.MustByName("ResNet 50"), true)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if sl.Prof.Name != "4g" {
		t.Errorf("naive placement chose %s, want the crowded 4g", sl.Prof.Name)
	}
}
