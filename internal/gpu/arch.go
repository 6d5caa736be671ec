package gpu

import "fmt"

// Arch describes one MIG-capable GPU generation. The paper evaluates on
// Ampere (A100) but argues PROTEAN generalizes to any architecture with
// equivalent partitioning (§7, "Generalizability"); Hopper's H100 is the
// obvious next target and is modelled here with its published MIG
// profile table.
type Arch struct {
	// Name labels the generation, e.g. "A100-40GB".
	Name string
	// TotalSlots is the number of compute slots per GPU.
	TotalSlots int
	// TotalMemGB is the GPU's memory capacity.
	TotalMemGB float64
	// profiles lists the instantiable MIG profiles, largest first.
	profiles []Profile
}

// a100 is the architecture the package-level Table 2 helpers
// (Geometry.Validate, ProfileByName) check against.
var a100 = ArchA100()

// ArchA100 is the 40 GB Ampere A100 of the paper's testbed (Table 2).
func ArchA100() Arch {
	return Arch{
		Name:       "A100-40GB",
		TotalSlots: TotalSlots,
		TotalMemGB: TotalMemGB,
		profiles:   Profiles(),
	}
}

// ArchH100 is the 80 GB Hopper H100: the same seven compute slots with
// doubled per-slice memory (NVIDIA's 7g.80gb/4g.40gb/3g.40gb/2g.20gb/
// 1g.10gb profile table).
func ArchH100() Arch {
	return Arch{
		Name:       "H100-80GB",
		TotalSlots: 7,
		TotalMemGB: 80,
		profiles: []Profile{
			{Name: "7g.80gb", Slots: 7, ComputeFrac: 1, MemGB: 80, CacheFrac: 1, MaxCount: 1},
			{Name: "4g.40gb", Slots: 4, ComputeFrac: 4.0 / 7, MemGB: 40, CacheFrac: 4.0 / 8, MaxCount: 1},
			{Name: "3g.40gb", Slots: 3, ComputeFrac: 3.0 / 7, MemGB: 40, CacheFrac: 4.0 / 8, MaxCount: 2},
			{Name: "2g.20gb", Slots: 2, ComputeFrac: 2.0 / 7, MemGB: 20, CacheFrac: 2.0 / 8, MaxCount: 3},
			{Name: "1g.10gb", Slots: 1, ComputeFrac: 1.0 / 7, MemGB: 10, CacheFrac: 1.0 / 8, MaxCount: 7},
		},
	}
}

// ProfileByName finds one of the architecture's profiles by exact name
// or by slot prefix ("4g" matches "4g.40gb").
func (a Arch) ProfileByName(name string) (Profile, bool) {
	for _, p := range a.profiles {
		if p.Name == name {
			return p, true
		}
	}
	for _, p := range a.profiles {
		if prefix(p.Name) == prefix(name) && prefix(name) != "" {
			return p, true
		}
	}
	return Profile{}, false
}

func prefix(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// ValidateGeometry checks a geometry against this architecture's slot
// budget, per-profile instance limits, and full-GPU exclusivity.
func (a Arch) ValidateGeometry(g Geometry) error {
	if len(g) == 0 {
		return fmt.Errorf("%w: no slices", ErrInvalidGeometry)
	}
	slots := 0
	counts := make(map[string]int, len(g))
	for _, p := range g {
		ref, ok := a.ProfileByName(p.Name)
		if !ok {
			return fmt.Errorf("%w: profile %q not part of %s", ErrInvalidGeometry, p.Name, a.Name)
		}
		slots += p.Slots
		counts[p.Name]++
		if counts[p.Name] > ref.MaxCount {
			return fmt.Errorf("%w: %d×%s exceeds max count %d on %s",
				ErrInvalidGeometry, counts[p.Name], p.Name, ref.MaxCount, a.Name)
		}
		if p.Slots == a.TotalSlots && len(g) > 1 {
			return fmt.Errorf("%w: full-GPU profile %s must be the only slice", ErrInvalidGeometry, p.Name)
		}
	}
	if slots > a.TotalSlots {
		return fmt.Errorf("%w: %d slots exceed %d on %s", ErrInvalidGeometry, slots, a.TotalSlots, a.Name)
	}
	return nil
}

// Translate maps a geometry expressed in another generation's profiles
// (e.g. the A100 "4g"/"3g" names every policy plans with) onto this
// architecture by slot prefix, so a (4g, 3g) plan becomes
// (4g.40gb, 3g.40gb) on an H100.
func (a Arch) Translate(g Geometry) (Geometry, error) {
	out := make(Geometry, 0, len(g))
	for _, p := range g {
		ref, ok := a.ProfileByName(p.Name)
		if !ok {
			return nil, fmt.Errorf("%w: no %s equivalent of profile %q", ErrInvalidGeometry, a.Name, p.Name)
		}
		out = append(out, ref)
	}
	out.normalize()
	if err := a.ValidateGeometry(out); err != nil {
		return nil, err
	}
	return out, nil
}
