package core

import (
	"math"

	"protean/internal/gpu"
	"protean/internal/model"
)

// placementFn picks a slice for a batch on a GPU.
type placementFn func(g *gpu.GPU, m *model.Model, strict bool, state *staticState) (*gpu.Slice, error)

// staticState holds mutable per-node baseline state (round-robin
// cursors).
type staticState struct {
	rr int
}

// staticPolicy implements all fixed-geometry baseline schemes.
type staticPolicy struct {
	name    string
	mode    gpu.SharingMode
	geom    gpu.Geometry
	reorder bool
	place   placementFn
	strict  float64 // GPUlet SM cap for strict batches (0 = none)
	be      float64 // GPUlet SM cap for BE batches
	state   staticState
}

var _ Policy = (*staticPolicy)(nil)

func (p *staticPolicy) Name() string                  { return p.name }
func (p *staticPolicy) Sharing() gpu.SharingMode      { return p.mode }
func (p *staticPolicy) InitialGeometry() gpu.Geometry { return p.geom }
func (p *staticPolicy) ReorderRequests() bool         { return p.reorder }

func (p *staticPolicy) SMCap(strict bool) float64 {
	if strict {
		return p.strict
	}
	return p.be
}

func (p *staticPolicy) Place(g *gpu.GPU, m *model.Model, strict bool) (*gpu.Slice, error) {
	return p.place(g, m, strict, &p.state)
}

func (p *staticPolicy) DesiredGeometry(g *gpu.GPU, _ QueueView) (gpu.Geometry, bool) {
	return g.Geometry(), false
}

// placeSingle always uses the whole-GPU slice.
func placeSingle(g *gpu.GPU, m *model.Model, _ bool, _ *staticState) (*gpu.Slice, error) {
	slices := g.Slices()
	if len(slices) == 0 || !fits(slices[0], m) {
		return nil, ErrNoSlice
	}
	return slices[0], nil
}

// placeByMemory load-balances across slices proportionally to free
// memory (Naïve Slicing: "load-balanced according to slice memory,
// without any of the intelligence of PROTEAN").
func placeByMemory(g *gpu.GPU, m *model.Model, _ bool, _ *staticState) (*gpu.Slice, error) {
	var best *gpu.Slice
	bestFree := math.Inf(-1)
	for _, sl := range g.Slices() {
		if !fits(sl, m) {
			continue
		}
		free := sl.AvailableMemGB()
		if free > bestFree {
			bestFree = free
			best = sl
		}
	}
	if best == nil {
		return nil, ErrNoSlice
	}
	return best, nil
}

// placeRoundRobin time-shares slices in rotation (MIG Only).
func placeRoundRobin(g *gpu.GPU, m *model.Model, _ bool, st *staticState) (*gpu.Slice, error) {
	slices := g.Slices()
	for i := 0; i < len(slices); i++ {
		sl := slices[(st.rr+i)%len(slices)]
		if fits(sl, m) {
			st.rr = (st.rr + i + 1) % len(slices)
			return sl, nil
		}
	}
	return nil, ErrNoSlice
}

// placeEvenLoad splits batches evenly across slices by outstanding job
// count (the MPS+MIG straw man of §2.2).
func placeEvenLoad(g *gpu.GPU, m *model.Model, _ bool, _ *staticState) (*gpu.Slice, error) {
	var best *gpu.Slice
	bestLoad := math.MaxInt
	for _, sl := range g.Slices() {
		if !fits(sl, m) {
			continue
		}
		if sl.Load() < bestLoad {
			bestLoad = sl.Load()
			best = sl
		}
	}
	if best == nil {
		return nil, ErrNoSlice
	}
	return best, nil
}

// placeSmart isolates classes: strict batches on the largest fitting
// slice, BE batches on the smallest ('Smart' MPS+MIG straw man).
func placeSmart(g *gpu.GPU, m *model.Model, strict bool, _ *staticState) (*gpu.Slice, error) {
	slices := g.Slices() // descending
	if !strict {
		slices = g.SlicesAscending()
	}
	for _, sl := range slices {
		if fits(sl, m) {
			return sl, nil
		}
	}
	return nil, ErrNoSlice
}

func wholeGPU() gpu.Geometry { return gpu.MustGeometry(gpu.Profile7g) }

// defaultStaticGeometry is the static slicing used by the Naïve Slicing
// and MIG Only baselines.
func defaultStaticGeometry() gpu.Geometry {
	return gpu.MustGeometry(gpu.Profile4g, gpu.Profile2g, gpu.Profile1g)
}

// NewMoleculeBeta returns the Molecule (beta) scheme: whole-GPU time
// sharing, no MPS, no MIG, no reordering.
func NewMoleculeBeta() Factory {
	return func() Policy {
		return &staticPolicy{
			name:  "Molecule (beta)",
			mode:  gpu.ShareTimeSlice,
			geom:  wholeGPU(),
			place: placeSingle,
		}
	}
}

// NewINFlessLlama returns the INFless/Llama scheme: all batches
// consolidated on the whole GPU via MPS, MIG-agnostic.
func NewINFlessLlama() Factory {
	return func() Policy {
		return &staticPolicy{
			name:  "INFless/Llama",
			mode:  gpu.ShareMPS,
			geom:  wholeGPU(),
			place: placeSingle,
		}
	}
}

// NewNaiveSlicing returns the Naïve Slicing scheme: static MIG slices
// spatially shared via MPS, batches load-balanced by slice memory with
// no strictness awareness. A nil geometry uses (4g, 2g, 1g).
func NewNaiveSlicing(geom gpu.Geometry) Factory {
	if geom == nil {
		geom = defaultStaticGeometry()
	}
	return func() Policy {
		return &staticPolicy{
			name:  "Naive Slicing",
			mode:  gpu.ShareMPS,
			geom:  geom,
			place: placeByMemory,
		}
	}
}

// NewMIGOnly returns the MIG Only scheme of §2.2: static slices,
// time-shared round robin, no MPS.
func NewMIGOnly(geom gpu.Geometry) Factory {
	if geom == nil {
		geom = defaultStaticGeometry()
	}
	return func() Policy {
		return &staticPolicy{
			name:  "MIG Only",
			mode:  gpu.ShareTimeSlice,
			geom:  geom,
			place: placeRoundRobin,
		}
	}
}

// NewMPSMIG returns the MPS+MIG straw man of §2.2: static (4g, 3g)
// slices, MPS within each, batches split evenly across slices.
func NewMPSMIG(geom gpu.Geometry) Factory {
	if geom == nil {
		geom = gpu.MustGeometry(gpu.Profile4g, gpu.Profile3g)
	}
	return func() Policy {
		return &staticPolicy{
			name:  "MPS+MIG",
			mode:  gpu.ShareMPS,
			geom:  geom,
			place: placeEvenLoad,
		}
	}
}

// NewSmartMPSMIG returns the 'Smart' MPS+MIG straw man of §2.2: strict
// and BE batches isolated on separate static slices, strict on the
// largest.
func NewSmartMPSMIG(geom gpu.Geometry) Factory {
	if geom == nil {
		geom = gpu.MustGeometry(gpu.Profile4g, gpu.Profile3g)
	}
	return func() Policy {
		return &staticPolicy{
			name:  "'Smart' MPS+MIG",
			mode:  gpu.ShareMPS,
			geom:  geom,
			place: placeSmart,
		}
	}
}

// NewNoSharing returns the "No MPS or MIG" scheme of §2.2: whole-GPU
// time sharing (an alias of Molecule (beta) under its Figure 2 name).
func NewNoSharing() Factory {
	return func() Policy {
		return &staticPolicy{
			name:  "No MPS or MIG",
			mode:  gpu.ShareTimeSlice,
			geom:  wholeGPU(),
			place: placeSingle,
		}
	}
}

// NewMPSOnly returns the "MPS Only" scheme of §2.2 (the Figure 2 name
// for whole-GPU MPS consolidation).
func NewMPSOnly() Factory {
	return func() Policy {
		return &staticPolicy{
			name:  "MPS Only",
			mode:  gpu.ShareMPS,
			geom:  wholeGPU(),
			place: placeSingle,
		}
	}
}

// NewGPUlet returns the strategic-MPS comparison scheme of §6.2
// (GPUlet): the whole GPU under MPS with SM upper bounds — ~60–65% of
// SMs for strict batches, the rest for BE.
func NewGPUlet(strictCap, beCap float64) Factory {
	if strictCap <= 0 || strictCap > 1 {
		strictCap = 0.625
	}
	if beCap <= 0 || beCap > 1 {
		beCap = 1 - strictCap
	}
	return func() Policy {
		return &staticPolicy{
			name:   "GPUlet",
			mode:   gpu.ShareMPS,
			geom:   wholeGPU(),
			place:  placeSingle,
			strict: strictCap,
			be:     beCap,
		}
	}
}
