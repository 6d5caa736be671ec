// Package model provides the 22 ML inference workloads the paper
// evaluates (12 vision CNNs, 8 encoder language models, and two
// generative LLMs), together with the performance observables PROTEAN's
// scheduling decisions depend on:
//
//   - Solo batch execution time on each MIG profile (the Resource
//     Deficiency Factor, RDF, of §3),
//   - the Fractional Bandwidth Requirement (FBR) driving MPS
//     interference (Eq. 1), and
//   - per-batch memory footprint.
//
// Values are calibrated to the anecdotes the paper publishes (batch
// latency 50–200 ms on 7g, ALBERT slowing 2.15× on small slices, DPN 92's
// 2.74× memory footprint, GPT FBRs far above the encoder LLMs) rather
// than measured on hardware; see DESIGN.md for the substitution argument.
package model

import (
	"fmt"

	"protean/internal/gpu"
)

// Class is a workload interference class, assigned from the normalized
// FBR values (Figure 3).
type Class int

const (
	// ClassLI marks Low Interference models.
	ClassLI Class = iota + 1
	// ClassHI marks High Interference models.
	ClassHI
	// ClassVHI marks Very High Interference models (the LLMs, §6.2).
	ClassVHI
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassLI:
		return "LI"
	case ClassHI:
		return "HI"
	case ClassVHI:
		return "VHI"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Domain is the workload's application domain.
type Domain int

const (
	// DomainVision marks image classification models (batch 128,
	// ImageNet-1k).
	DomainVision Domain = iota + 1
	// DomainLanguage marks sequence classification models (batch 4,
	// Large Movie Review Dataset).
	DomainLanguage
)

// String implements fmt.Stringer.
func (d Domain) String() string {
	switch d {
	case DomainVision:
		return "vision"
	case DomainLanguage:
		return "language"
	default:
		return fmt.Sprintf("Domain(%d)", int(d))
	}
}

// DefaultSLOMultiplier is the paper's default SLO target: 3× the batch
// execution latency on a full 7g instance.
const DefaultSLOMultiplier = 3.0

// memShrinkOnSlice reflects the observed decrease in workload memory
// footprint when scheduled on smaller slices (§6.1.4).
const memShrinkOnSlice = 0.9

// RDF deficiency weights: how strongly reduced SM count vs reduced
// cache/bandwidth capacity inflate solo latency on a partial slice.
const (
	rdfComputeWeight = 0.7
	rdfCacheWeight   = 0.3
)

// Model is one inference workload. Models are immutable; the packaged zoo
// shares *Model pointers freely.
type Model struct {
	name        string
	domain      Domain
	class       Class
	batchSize   int
	solo7g      float64 // seconds per batch on an idle 7g
	fbr         float64 // fractional bandwidth requirement per batch
	compute     float64 // fraction of a full GPU's SMs one batch utilizes
	memGB       float64 // memory footprint per batch on 7g
	rdfSens     float64 // sensitivity to resource deficiency
	pollution   float64 // cache pollution inflicted on co-runners
	sensitivity float64 // sensitivity to co-runners' cache pollution
}

var _ gpu.Workload = (*Model)(nil)

// New constructs a custom model. Most callers should use the zoo
// accessors instead. pollution and sensitivity are the cache-pollution
// and cache-sensitivity coefficients in [0, 1] driving heterogeneous MPS
// interference (streaming CNN batches pollute; small-batch LLMs are
// sensitive).
func New(name string, domain Domain, class Class, batchSize int, solo7g, fbr, compute, memGB, rdfSens, pollution, sensitivity float64) (*Model, error) {
	switch {
	case name == "":
		return nil, fmt.Errorf("model: empty name")
	case batchSize <= 0:
		return nil, fmt.Errorf("model %s: batch size %d must be positive", name, batchSize)
	case solo7g <= 0:
		return nil, fmt.Errorf("model %s: solo time %v must be positive", name, solo7g)
	case fbr < 0:
		return nil, fmt.Errorf("model %s: FBR %v must be non-negative", name, fbr)
	case compute <= 0 || compute > 1:
		return nil, fmt.Errorf("model %s: compute demand %v out of (0, 1]", name, compute)
	case memGB <= 0 || memGB > gpu.TotalMemGB:
		return nil, fmt.Errorf("model %s: memory %v GB out of range (0, %v]", name, memGB, gpu.TotalMemGB)
	case rdfSens < 0:
		return nil, fmt.Errorf("model %s: RDF sensitivity %v must be non-negative", name, rdfSens)
	case pollution < 0 || pollution > 1:
		return nil, fmt.Errorf("model %s: cache pollution %v out of [0, 1]", name, pollution)
	case sensitivity < 0 || sensitivity > 1:
		return nil, fmt.Errorf("model %s: cache sensitivity %v out of [0, 1]", name, sensitivity)
	}
	return &Model{
		name:        name,
		domain:      domain,
		class:       class,
		batchSize:   batchSize,
		solo7g:      solo7g,
		fbr:         fbr,
		compute:     compute,
		memGB:       memGB,
		rdfSens:     rdfSens,
		pollution:   pollution,
		sensitivity: sensitivity,
	}, nil
}

func mustNew(name string, domain Domain, class Class, batchSize int, solo7gMS, fbr, compute, memGB, rdfSens, pollution, sensitivity float64) *Model {
	m, err := New(name, domain, class, batchSize, solo7gMS/1000, fbr, compute, memGB, rdfSens, pollution, sensitivity)
	if err != nil {
		panic(err)
	}
	return m
}

// Name returns the model's name.
func (m *Model) Name() string { return m.name }

// Domain returns the model's application domain.
func (m *Model) Domain() Domain { return m.domain }

// Class returns the interference class.
func (m *Model) Class() Class { return m.class }

// BatchSize returns the serving batch size (128 for vision, 4 for
// language, per §5).
func (m *Model) BatchSize() int { return m.batchSize }

// Solo7g returns the isolated batch execution time on a full GPU.
func (m *Model) Solo7g() float64 { return m.solo7g }

// FBR returns the Fractional Bandwidth Requirement of one batch.
func (m *Model) FBR() float64 { return m.fbr }

// ComputeDemand returns the fraction of a full GPU's SMs one batch can
// utilize.
func (m *Model) ComputeDemand() float64 { return m.compute }

// Cache returns the model's cache-pollution and cache-sensitivity
// coefficients, the drivers of heterogeneous MPS interference.
func (m *Model) Cache() (pollution, sensitivity float64) { return m.pollution, m.sensitivity }

// RDF is the Resource Deficiency Factor for profile p: the ratio of solo
// execution time on p to solo execution time on 7g (§3). The compute
// term only applies to the extent the model demands more SMs than the
// slice offers — a batch-4 LLM that uses half the GPU's SMs loses no
// compute on a 4g slice, while cache and bandwidth partitioning always
// bite.
func (m *Model) RDF(p gpu.Profile) float64 {
	if p.ComputeFrac >= 1 && p.CacheFrac >= 1 {
		return 1
	}
	computeDef := 0.0
	if m.compute > p.ComputeFrac {
		computeDef = m.compute/p.ComputeFrac - 1
	}
	cacheDef := 1/p.CacheFrac - 1
	raw := float64(rdfComputeWeight*computeDef) + float64(rdfCacheWeight*cacheDef)
	return 1 + float64(m.rdfSens*raw)
}

// SoloTime is the isolated batch execution time on profile p.
func (m *Model) SoloTime(p gpu.Profile) float64 { return m.solo7g * m.RDF(p) }

// MemGB is the per-batch memory footprint on profile p. Footprints
// shrink slightly on partial slices, as observed in §6.1.4.
func (m *Model) MemGB(p gpu.Profile) float64 {
	if p.Slots < gpu.TotalSlots {
		return m.memGB * memShrinkOnSlice
	}
	return m.memGB
}

// SLO returns the latency target for strict requests given an SLO
// multiplier (3× by default per §5, 2× in the tight-SLO study).
func (m *Model) SLO(multiplier float64) float64 { return multiplier * m.solo7g }

// String implements fmt.Stringer.
func (m *Model) String() string {
	return fmt.Sprintf("%s(%s, b=%d, solo=%.0fms, fbr=%.2f, mem=%.1fGB)",
		m.name, m.class, m.batchSize, m.solo7g*1000, m.fbr, m.memGB)
}
