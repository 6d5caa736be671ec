// Package gpu models an NVIDIA A100-class GPU with MIG (Multi-Instance
// GPU) hardware partitioning and MPS (Multi-Process Service) software
// spatial sharing.
//
// The package provides two layers:
//
//   - a static layer describing MIG instance profiles and geometries
//     (partitionings of the GPU into slices), reproducing Table 2 of the
//     PROTEAN paper, and
//
//   - a dynamic execution engine that runs jobs on slices in virtual time,
//     applying the paper's slowdown model: a job co-located with others on
//     a slice under MPS progresses at rate 1/(RDF × max(Σ FBR, 1)),
//     while a time-shared slice runs one job at a time with no
//     interference.
package gpu

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Profile describes one MIG instance profile of an A100-40GB GPU
// (Table 2 of the paper).
type Profile struct {
	// Name is the short profile name, e.g. "4g".
	Name string
	// Slots is the number of GPU compute slots (out of 7) the profile
	// occupies. It determines geometry validity.
	Slots int
	// ComputeFrac is the fraction of the GPU's SMs available to the
	// slice.
	ComputeFrac float64
	// MemGB is the slice's dedicated memory capacity in GB.
	MemGB float64
	// CacheFrac is the fraction of L2 cache (out of 8 cache slices)
	// available to the slice.
	CacheFrac float64
	// MaxCount is the maximum number of concurrently instantiable
	// slices of this profile on one GPU.
	MaxCount int
}

// The five MIG instance profiles of an A100 40GB GPU, per Table 2.
var (
	Profile7g = Profile{Name: "7g", Slots: 7, ComputeFrac: 1, MemGB: 40, CacheFrac: 1, MaxCount: 1}
	Profile4g = Profile{Name: "4g", Slots: 4, ComputeFrac: 4.0 / 7, MemGB: 20, CacheFrac: 4.0 / 8, MaxCount: 1}
	Profile3g = Profile{Name: "3g", Slots: 3, ComputeFrac: 3.0 / 7, MemGB: 20, CacheFrac: 4.0 / 8, MaxCount: 2}
	Profile2g = Profile{Name: "2g", Slots: 2, ComputeFrac: 2.0 / 7, MemGB: 10, CacheFrac: 2.0 / 8, MaxCount: 3}
	Profile1g = Profile{Name: "1g", Slots: 1, ComputeFrac: 1.0 / 7, MemGB: 5, CacheFrac: 1.0 / 8, MaxCount: 7}
)

// Profiles lists all A100 MIG profiles in descending resource order.
func Profiles() []Profile {
	return []Profile{Profile7g, Profile4g, Profile3g, Profile2g, Profile1g}
}

// ProfileByName looks up an A100 profile by its short name
// ("7g".."1g"). Long names such as "4g.20gb" are also accepted.
func ProfileByName(name string) (Profile, bool) { return a100.ProfileByName(name) }

// Scaled returns a virtual profile representing a capped fraction frac
// (0 < frac <= 1] of p's SMs, as configured by MPS active-thread
// percentage limits (used to model GPUlet's strategic MPS partitions).
// Memory capacity and cache are unchanged: MPS caps only restrict SMs —
// cache and bandwidth stay shared (§2.2), which is exactly why GPUlet
// still suffers interference. The capped profile keeps p's name: it is
// the same MIG instance, and the engine builds one on every capped
// job's start, which must not allocate.
func Scaled(p Profile, frac float64) Profile {
	if frac <= 0 || frac >= 1 {
		return p
	}
	return Profile{
		Name:        p.Name,
		Slots:       p.Slots,
		ComputeFrac: p.ComputeFrac * frac,
		MemGB:       p.MemGB,
		CacheFrac:   p.CacheFrac,
		MaxCount:    p.MaxCount,
	}
}

// TotalSlots is the number of compute slots on a whole GPU.
const TotalSlots = 7

// TotalMemGB is the memory capacity of a whole A100-40GB GPU.
const TotalMemGB = 40.0

// Geometry is a MIG partitioning of one GPU: the multiset of instantiated
// slice profiles. Geometries are kept sorted in descending slot order.
// A Geometry is a value: it is never modified after construction, so
// the engine, the policies and the planner share one freely.
type Geometry []Profile

// ErrInvalidGeometry is wrapped by all geometry validation failures.
var ErrInvalidGeometry = errors.New("invalid MIG geometry")

// NewGeometry builds a geometry from the given profiles, normalizing
// order and validating it.
func NewGeometry(profiles ...Profile) (Geometry, error) {
	g := make(Geometry, len(profiles))
	copy(g, profiles)
	g.normalize()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// MustGeometry is NewGeometry for known-good literals; it panics on error.
func MustGeometry(profiles ...Profile) Geometry {
	g, err := NewGeometry(profiles...)
	if err != nil {
		panic(err)
	}
	return g
}

// ParseGeometry parses a comma-separated geometry spec such as "4g,3g" or
// "(4g, 2g, 1g)".
//
//lint:ignore deadcode reconfig_test.go builds its geometries with it; TestParseGeometry and TestPropertyGeometryStringRoundTrip cover it
func ParseGeometry(spec string) (Geometry, error) {
	spec = strings.TrimSpace(spec)
	spec = strings.TrimPrefix(spec, "(")
	spec = strings.TrimSuffix(spec, ")")
	if spec == "" {
		return nil, fmt.Errorf("%w: empty spec", ErrInvalidGeometry)
	}
	parts := strings.Split(spec, ",")
	profiles := make([]Profile, 0, len(parts))
	for _, part := range parts {
		p, ok := ProfileByName(strings.TrimSpace(part))
		if !ok {
			return nil, fmt.Errorf("%w: unknown profile %q", ErrInvalidGeometry, part)
		}
		profiles = append(profiles, p)
	}
	return NewGeometry(profiles...)
}

// normalize sorts g in place. Only constructors call it, on slices they
// have just allocated.
func (g Geometry) normalize() {
	sort.Slice(g, func(i, j int) bool { return g[i].Slots > g[j].Slots })
}

// Validate checks the geometry against A100 MIG constraints (Table 2):
// see Arch.ValidateGeometry.
func (g Geometry) Validate() error { return a100.ValidateGeometry(g) }

// Slots returns the total compute slots used by the geometry.
//
//lint:ignore deadcode reached from ValidGeometries; TestGeometryAggregates and TestPropertyEnumeratedGeometryLimits use it
func (g Geometry) Slots() int {
	n := 0
	for _, p := range g {
		n += p.Slots
	}
	return n
}

// MemGB returns the total memory capacity across the geometry's slices.
//
//lint:ignore deadcode reached from ValidGeometries; TestGeometryAggregates and core's TestPropertyTagSlicesConservesMemory use it
func (g Geometry) MemGB() float64 {
	m := 0.0
	for _, p := range g {
		m += p.MemGB
	}
	return m
}

// Equal reports whether two geometries instantiate the same multiset of
// partition layouts. Profiles are compared by slot prefix so that an
// A100 plan "(4g, 3g)" equals its H100 installation "(4g.40gb,
// 3g.40gb)" — the partitioning is the same even though capacities
// differ per generation.
func (g Geometry) Equal(other Geometry) bool {
	if len(g) != len(other) {
		return false
	}
	// Match each slice of g to an unmatched slice of other with the
	// same prefix. A valid geometry has at most TotalSlots slices, so
	// the buffer keeps this allocation-free.
	var buf [TotalSlots]bool
	matched := buf[:]
	if len(other) > len(buf) {
		matched = make([]bool, len(other))
	}
	for _, p := range g {
		name := prefix(p.Name)
		j := 0
		for j < len(other) && (matched[j] || prefix(other[j].Name) != name) {
			j++
		}
		if j == len(other) {
			return false
		}
		matched[j] = true
	}
	return true
}

// String renders the geometry as "(4g, 3g)".
func (g Geometry) String() string {
	names := make([]string, len(g))
	for i, p := range g {
		names[i] = p.Name
	}
	return "(" + strings.Join(names, ", ") + ")"
}

// ValidGeometries enumerates every valid A100 geometry (deduplicated by
// profile multiset), sorted by descending total slots, then descending
// total memory, then by name. It is the Table 2 oracle that tests check
// geometries against.
//
//lint:ignore deadcode Table 2 oracle for TestValidGeometriesAreAllValid and TestPropertyEnumeratedGeometryLimits in profile_test.go
func ValidGeometries() []Geometry {
	small := []Profile{Profile4g, Profile3g, Profile2g, Profile1g}
	seen := make(map[string]Geometry)
	var rec func(start int, cur []Profile)
	rec = func(start int, cur []Profile) {
		if len(cur) > 0 {
			g, err := NewGeometry(cur...)
			if err == nil {
				seen[g.String()] = g
			}
		}
		for i := start; i < len(small); i++ {
			next := append(cur[:len(cur):len(cur)], small[i])
			if Geometry(next).Slots() <= TotalSlots {
				rec(i, next)
			}
		}
	}
	rec(0, nil)
	seen["(7g)"] = MustGeometry(Profile7g)

	out := make([]Geometry, 0, len(seen))
	for _, g := range seen {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Slots() != out[j].Slots() {
			return out[i].Slots() > out[j].Slots()
		}
		//lint:ignore floateq MemGB values are exact Table 2 constants; the tie-break needs exact comparison
		if out[i].MemGB() != out[j].MemGB() {
			return out[i].MemGB() > out[j].MemGB()
		}
		return out[i].String() < out[j].String()
	})
	return out
}
