package model

// The zoo: the 22 workloads of §5. Solo latencies are expressed in
// milliseconds on an idle 7g instance and fall in the paper's 50–200 ms
// band; FBRs are normalized fractions of partition memory bandwidth with
// LI ≪ HI < VHI ≤ GPT (Figure 3 and §6.2); memory footprints span the
// paper's ~2–14 GB per batch with DPN 92 ≈ 2.74× the typical vision
// model; RDF sensitivities reproduce the published deficiency anecdotes
// (ShuffleNet V2 < 2% on mid slices, ALBERT ≈ 2.15× on small slices).
var zoo = buildZoo()

func buildZoo() []*Model {
	const visionBatch, langBatch = 128, 4
	return []*Model{
		// Vision, Low Interference.
		mustNew("ShuffleNet V2", DomainVision, ClassLI, visionBatch, 55, 0.15, 0.45, 2.0, 0.025, 0.85, 0.05),
		mustNew("MobileNet", DomainVision, ClassLI, visionBatch, 60, 0.18, 0.5, 2.2, 0.04, 0.85, 0.05),
		mustNew("MobileNet V2", DomainVision, ClassLI, visionBatch, 65, 0.20, 0.5, 2.4, 0.05, 0.85, 0.05),
		mustNew("ResNet 18", DomainVision, ClassLI, visionBatch, 62, 0.24, 0.55, 2.8, 0.06, 0.85, 0.06),
		mustNew("SENet 18", DomainVision, ClassLI, visionBatch, 70, 0.22, 0.55, 3.0, 0.06, 0.85, 0.06),
		mustNew("EfficientNet-B0", DomainVision, ClassLI, visionBatch, 85, 0.26, 0.6, 3.2, 0.08, 0.88, 0.08),
		mustNew("GoogleNet", DomainVision, ClassLI, visionBatch, 90, 0.30, 0.6, 3.5, 0.1, 0.88, 0.08),
		mustNew("Simplified DLA", DomainVision, ClassLI, visionBatch, 95, 0.32, 0.65, 4.0, 0.12, 0.9, 0.08),
		// Vision, High Interference.
		mustNew("ResNet 50", DomainVision, ClassHI, visionBatch, 120, 0.86, 0.85, 5.0, 0.25, 0.95, 0.1),
		mustNew("DenseNet 121", DomainVision, ClassHI, visionBatch, 140, 0.89, 0.88, 6.0, 0.3, 0.95, 0.1),
		mustNew("VGG 19", DomainVision, ClassHI, visionBatch, 180, 0.93, 0.92, 7.5, 0.35, 0.95, 0.1),
		mustNew("DPN 92", DomainVision, ClassHI, visionBatch, 190, 0.95, 0.95, 13.7, 0.4, 0.95, 0.12),
		// Language (encoder LLMs), Very High Interference.
		mustNew("DistilBERT", DomainLanguage, ClassVHI, langBatch, 60, 0.90, 0.4, 2.0, 0.55, 0.15, 0.85),
		mustNew("SqueezeBERT", DomainLanguage, ClassVHI, langBatch, 80, 0.92, 0.42, 2.2, 0.58, 0.15, 0.85),
		mustNew("BERT", DomainLanguage, ClassVHI, langBatch, 120, 0.94, 0.48, 3.5, 0.68, 0.15, 0.9),
		mustNew("RoBERTa", DomainLanguage, ClassVHI, langBatch, 130, 0.95, 0.5, 3.6, 0.7, 0.15, 0.9),
		mustNew("Funnel-Transformer", DomainLanguage, ClassVHI, langBatch, 150, 0.96, 0.52, 3.8, 0.73, 0.15, 0.92),
		mustNew("ALBERT", DomainLanguage, ClassVHI, langBatch, 160, 0.97, 0.52, 2.5, 0.78, 0.15, 0.95),
		mustNew("FlauBERT", DomainLanguage, ClassVHI, langBatch, 170, 0.96, 0.54, 4.0, 0.74, 0.15, 0.92),
		mustNew("DeBERTa", DomainLanguage, ClassVHI, langBatch, 185, 0.98, 0.55, 4.5, 0.75, 0.15, 0.93),
		// Generative LLMs: especially high FBRs (§6.2, Figure 13).
		mustNew("GPT-1", DomainLanguage, ClassVHI, langBatch, 180, 1.35, 0.6, 5.0, 0.82, 0.2, 1.0),
		mustNew("GPT-2", DomainLanguage, ClassVHI, langBatch, 200, 1.40, 0.65, 6.5, 0.85, 0.2, 1.0),
	}
}

// All returns every workload in the zoo.
func All() []*Model { return clone(zoo) }

// Vision returns the 12 image classification workloads.
func Vision() []*Model { return filter(func(m *Model) bool { return m.domain == DomainVision }) }

// VisionLI returns the low-interference vision workloads.
func VisionLI() []*Model {
	return filter(func(m *Model) bool { return m.domain == DomainVision && m.class == ClassLI })
}

// VisionHI returns the high-interference vision workloads.
func VisionHI() []*Model {
	return filter(func(m *Model) bool { return m.domain == DomainVision && m.class == ClassHI })
}

// Language returns the eight encoder LLM workloads (GPT excluded).
func Language() []*Model {
	return filter(func(m *Model) bool {
		return m.domain == DomainLanguage && m.name != "GPT-1" && m.name != "GPT-2"
	})
}

// Generative returns the generative LLM workloads (GPT-1, GPT-2).
func Generative() []*Model {
	return filter(func(m *Model) bool { return m.name == "GPT-1" || m.name == "GPT-2" })
}

// ByName looks a zoo model up by name.
func ByName(name string) (*Model, bool) {
	for _, m := range zoo {
		if m.name == name {
			return m, true
		}
	}
	return nil, false
}

// MustByName is ByName for known-good literals; it panics when missing.
func MustByName(name string) *Model {
	m, ok := ByName(name)
	if !ok {
		panic("model: unknown model " + name)
	}
	return m
}

// OppositeClassPool returns the BE request pool used in the paper's
// primary experiments: for an LI strict model the BE requests rotate over
// HI models and vice versa; for a VHI strict model they rotate over the
// other encoder LLMs.
func OppositeClassPool(strict *Model) []*Model {
	switch {
	case strict.domain == DomainLanguage:
		pool := Language()
		out := pool[:0]
		for _, m := range pool {
			if m.name != strict.name {
				out = append(out, m)
			}
		}
		return out
	case strict.class == ClassLI:
		return VisionHI()
	default:
		return VisionLI()
	}
}

func filter(keep func(*Model) bool) []*Model {
	var out []*Model
	for _, m := range zoo {
		if keep(m) {
			out = append(out, m)
		}
	}
	return out
}

func clone(ms []*Model) []*Model {
	out := make([]*Model, len(ms))
	copy(out, ms)
	return out
}
