package gpu

import (
	"testing"

	"protean/internal/sim"
)

func TestArchA100MatchesGlobals(t *testing.T) {
	a := ArchA100()
	if a.TotalSlots != TotalSlots || a.TotalMemGB != TotalMemGB {
		t.Errorf("A100 totals = %d/%v", a.TotalSlots, a.TotalMemGB)
	}
	if len(a.profiles) != 5 {
		t.Errorf("A100 profiles = %d, want 5", len(a.profiles))
	}
}

func TestArchH100Profiles(t *testing.T) {
	h := ArchH100()
	if h.TotalMemGB != 80 {
		t.Errorf("H100 memory = %v, want 80", h.TotalMemGB)
	}
	p, ok := h.ProfileByName("3g.40gb")
	if !ok || p.MemGB != 40 {
		t.Fatalf("3g.40gb = %+v, ok=%v", p, ok)
	}
	// Slot-prefix lookup works across generations.
	p, ok = h.ProfileByName("4g")
	if !ok || p.Name != "4g.40gb" {
		t.Errorf("ProfileByName(4g) = %+v, ok=%v", p, ok)
	}
	if _, ok := h.ProfileByName("9g"); ok {
		t.Error("unknown profile found")
	}
	// Compute and cache fractions mirror the A100 layout.
	for _, name := range []string{"7g", "4g", "3g", "2g", "1g"} {
		a100, _ := ArchA100().ProfileByName(name)
		h100, ok := h.ProfileByName(name)
		if !ok {
			t.Fatalf("H100 missing %s", name)
		}
		if h100.ComputeFrac != a100.ComputeFrac || h100.CacheFrac != a100.CacheFrac {
			t.Errorf("%s fractions differ: %+v vs %+v", name, h100, a100)
		}
		if h100.MemGB != 2*a100.MemGB {
			t.Errorf("%s H100 memory = %v, want 2× A100's %v", name, h100.MemGB, a100.MemGB)
		}
	}
}

func TestArchValidateGeometry(t *testing.T) {
	h := ArchH100()
	g4, _ := h.ProfileByName("4g")
	g3, _ := h.ProfileByName("3g")
	g7, _ := h.ProfileByName("7g")

	valid := Geometry{g4, g3}
	if err := h.ValidateGeometry(valid); err != nil {
		t.Errorf("H100 (4g, 3g) invalid: %v", err)
	}
	// A100 profiles are rejected on an H100... the slot-prefix fallback
	// resolves them, so mixed-generation specs validate by prefix — but
	// true overflows still fail.
	if err := h.ValidateGeometry(Geometry{g4, g4}); err == nil {
		t.Error("duplicate 4g accepted")
	}
	if err := h.ValidateGeometry(Geometry{g7, g3}); err == nil {
		t.Error("full-GPU profile with company accepted")
	}
	if err := h.ValidateGeometry(nil); err == nil {
		t.Error("empty geometry accepted")
	}
}

func TestNewGPUWithArchH100(t *testing.T) {
	s := sim.New(1)
	h := ArchH100()
	g4, _ := h.ProfileByName("4g")
	g3, _ := h.ProfileByName("3g")
	g, err := NewGPU(s, 0, h, Geometry{g4, g3}, ShareMPS)
	if err != nil {
		t.Fatalf("NewGPU: %v", err)
	}
	if g.Arch().Name != "H100-80GB" {
		t.Errorf("arch = %s", g.Arch().Name)
	}
	// An H100 3g slice holds twice the memory: two 15 GB jobs run
	// concurrently where an A100 3g would queue one.
	w := &stubWorkload{name: "big", solo7g: 1, fbr: 0.2, mem: 15}
	var sl3 *Slice
	for _, sl := range g.Slices() {
		if sl.Prof.Name == "3g.40gb" {
			sl3 = sl
		}
	}
	for i := 0; i < 2; i++ {
		if err := sl3.Submit(&Job{W: w}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if got := len(sl3.running); got != 2 {
		t.Errorf("running = %d, want 2 (80 GB generation)", got)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Memory utilization is normalized by the H100's 80 GB.
	if err := s.RunUntil(2); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	_, mem := g.Utilization(s.Now())
	want := (30.0 * 1.0) / (80.0 * 2.0) // 30 GB for 1 s over 80 GB × 2 s
	if diff := mem - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("memory utilization = %v, want %v", mem, want)
	}
}

func TestNewGPUWithArchRejectsOverflow(t *testing.T) {
	s := sim.New(1)
	h := ArchH100()
	g4, _ := h.ProfileByName("4g")
	if _, err := NewGPU(s, 0, h, Geometry{g4, g4}, ShareMPS); err == nil {
		t.Error("invalid H100 geometry accepted")
	}
	g3, _ := h.ProfileByName("3g")
	if _, err := NewGPU(s, 0, h, Geometry{g4, g3}, SharingMode(9)); err == nil {
		t.Error("bad sharing mode accepted")
	}
}

func TestDefaultGPUReportsA100(t *testing.T) {
	s := sim.New(1)
	g, err := NewGPU(s, 0, ArchA100(), MustGeometry(Profile7g), ShareMPS)
	if err != nil {
		t.Fatalf("NewGPU: %v", err)
	}
	if g.Arch().Name != "A100-40GB" {
		t.Errorf("default arch = %s", g.Arch().Name)
	}
}
