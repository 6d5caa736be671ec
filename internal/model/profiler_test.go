package model

import (
	"errors"
	"math"
	"testing"
)

func TestEstimateFBRsRecoversVisionValues(t *testing.T) {
	p := &Profiler{Seed: 1}
	models := Vision()
	est, err := p.EstimateFBRs(models)
	if err != nil {
		t.Fatalf("EstimateFBRs: %v", err)
	}
	for _, m := range models {
		got, ok := est[m.Name()]
		if !ok {
			t.Fatalf("no estimate for %s", m.Name())
		}
		// Compute-bound LI models' co-location slowdown is dominated by
		// SM sharing, so their estimate lands between the true FBR and
		// the compute demand (the *effective* interference coefficient);
		// bandwidth-bound HI models are recovered tightly.
		lo, hi := m.FBR()-0.08, math.Max(m.FBR(), m.ComputeDemand())+0.08
		if got < lo || got > hi {
			t.Errorf("%s: estimated coefficient %.3f outside [%.3f, %.3f] (fbr %.2f, compute %.2f)",
				m.Name(), got, lo, hi, m.FBR(), m.ComputeDemand())
		}
	}
}

func TestEstimateFBRsLanguageViaProbe(t *testing.T) {
	// All encoder LLMs and GPTs are bandwidth-saturating (FBR > 1): the
	// profiler must fall back to probe co-location and still recover
	// their FBRs.
	p := &Profiler{Seed: 2}
	models := append(Language(), Generative()...)
	est, err := p.EstimateFBRs(models)
	if err != nil {
		t.Fatalf("EstimateFBRs: %v", err)
	}
	for _, m := range models {
		if math.Abs(est[m.Name()]-m.FBR()) > 0.05 {
			t.Errorf("%s: estimated FBR %.3f, true %.3f", m.Name(), est[m.Name()], m.FBR())
		}
	}
	// Ordering: every encoder below both GPTs.
	minGPT := math.Min(est["GPT-1"], est["GPT-2"])
	for _, m := range Language() {
		if est[m.Name()] >= minGPT {
			t.Errorf("encoder %s estimate %.3f not below GPT minimum %.3f", m.Name(), est[m.Name()], minGPT)
		}
	}
}

func TestEstimateFBRsFullZoo(t *testing.T) {
	p := &Profiler{Seed: 3}
	est, err := p.EstimateFBRs(All())
	if err != nil {
		t.Fatalf("EstimateFBRs: %v", err)
	}
	if len(est) != 22 {
		t.Fatalf("estimates for %d models, want 22", len(est))
	}
	for _, m := range All() {
		got := est[m.Name()]
		lo, hi := m.FBR()-0.10, math.Max(m.FBR(), m.ComputeDemand())+0.10
		if got < lo || got > hi {
			t.Errorf("%s: estimated coefficient %.3f outside [%.3f, %.3f]", m.Name(), got, lo, hi)
		}
	}
}

func TestEstimateFBRsEmptyInput(t *testing.T) {
	p := &Profiler{}
	if _, err := p.EstimateFBRs(nil); err == nil {
		t.Error("EstimateFBRs(nil) succeeded, want error")
	}
}

func TestSolveFBRUnprofilable(t *testing.T) {
	m := MustByName("ShuffleNet V2")
	_, err := solveFBR([]*Model{m}, []observation{{counts: map[string]int{m.Name(): 2}, first: m.Name(), slowdown: 1.0}})
	if !errors.Is(err, ErrUnprofilable) {
		t.Errorf("err = %v, want ErrUnprofilable", err)
	}
}

func TestSolveFBRIgnoresUnknownModels(t *testing.T) {
	// Synthetic observations consistent with fbr = 0.30 under γ = 4 and
	// ShuffleNet's pollution/sensitivity (0.85/0.05 → self factor 1.17):
	// k replicas → slow = f(1 + 1.17(k−1)).
	m := MustByName("ShuffleNet V2")
	self := 1 + 4*0.85*0.05
	obs := []observation{
		{counts: map[string]int{m.Name(): 4}, first: m.Name(), slowdown: 0.30 * (1 + 3*self)},
		{counts: map[string]int{"ghost": 3}, first: "ghost", slowdown: 2.0},
		{counts: map[string]int{m.Name(): 6}, first: m.Name(), slowdown: 0.30 * (1 + 5*self)},
	}
	est, err := solveFBR([]*Model{m}, obs)
	if err != nil {
		t.Fatalf("solveFBR: %v", err)
	}
	if math.Abs(est[m.Name()]-0.30) > 1e-6 {
		t.Errorf("estimate = %v, want 0.30", est[m.Name()])
	}
}

func TestNormalizedFBR(t *testing.T) {
	norm := NormalizedFBR(map[string]float64{"a": 0.5, "b": 1.0, "c": 0.25})
	if norm["b"] != 1.0 || norm["a"] != 0.5 || norm["c"] != 0.25 {
		t.Errorf("normalized = %v", norm)
	}
	if got := NormalizedFBR(map[string]float64{}); len(got) != 0 {
		t.Errorf("empty input gave %v", got)
	}
	if got := NormalizedFBR(map[string]float64{"a": 0}); got["a"] != 0 {
		t.Errorf("all-zero input gave %v", got)
	}
}

func TestRunMixRejectsOversizedMix(t *testing.T) {
	p := &Profiler{Seed: 1}
	dpn := MustByName("DPN 92")
	if _, err := p.runMix(map[*Model]int{dpn: 4}); err == nil {
		t.Error("oversized mix accepted")
	}
}

func TestEstimatesFeedProteanEstimator(t *testing.T) {
	// The estimates are looked up by model name: a missing model must
	// be detectable.
	p := &Profiler{Seed: 4}
	est, err := p.EstimateFBRs(VisionHI())
	if err != nil {
		t.Fatalf("EstimateFBRs: %v", err)
	}
	for _, m := range VisionHI() {
		if est[m.Name()] <= 0 {
			t.Errorf("%s: estimate missing: %v", m.Name(), est[m.Name()])
		}
	}
}
