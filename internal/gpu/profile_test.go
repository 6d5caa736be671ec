package gpu

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

func TestProfileTable2Values(t *testing.T) {
	tests := []struct {
		prof     Profile
		compute  float64
		mem      float64
		cache    float64
		maxCount int
	}{
		{Profile7g, 1, 40, 1, 1},
		{Profile4g, 4.0 / 7, 20, 0.5, 1},
		{Profile3g, 3.0 / 7, 20, 0.5, 2},
		{Profile2g, 2.0 / 7, 10, 0.25, 3},
		{Profile1g, 1.0 / 7, 5, 0.125, 7},
	}
	for _, tt := range tests {
		t.Run(tt.prof.Name, func(t *testing.T) {
			if tt.prof.ComputeFrac != tt.compute {
				t.Errorf("ComputeFrac = %v, want %v", tt.prof.ComputeFrac, tt.compute)
			}
			if tt.prof.MemGB != tt.mem {
				t.Errorf("MemGB = %v, want %v", tt.prof.MemGB, tt.mem)
			}
			if tt.prof.CacheFrac != tt.cache {
				t.Errorf("CacheFrac = %v, want %v", tt.prof.CacheFrac, tt.cache)
			}
			if tt.prof.MaxCount != tt.maxCount {
				t.Errorf("MaxCount = %v, want %v", tt.prof.MaxCount, tt.maxCount)
			}
		})
	}
}

func TestProfileByName(t *testing.T) {
	tests := []struct {
		name string
		want string
		ok   bool
	}{
		{"7g", "7g", true},
		{"4g.20gb", "4g", true},
		{"1g.5gb", "1g", true},
		{"9g", "", false},
		{"", "", false},
	}
	for _, tt := range tests {
		p, ok := ProfileByName(tt.name)
		if ok != tt.ok {
			t.Errorf("ProfileByName(%q) ok = %v, want %v", tt.name, ok, tt.ok)
			continue
		}
		if ok && p.Name != tt.want {
			t.Errorf("ProfileByName(%q) = %q, want %q", tt.name, p.Name, tt.want)
		}
	}
}

func TestScaledProfile(t *testing.T) {
	s := Scaled(Profile7g, 0.65)
	if got, want := s.ComputeFrac, 0.65; got != want {
		t.Errorf("ComputeFrac = %v, want %v", got, want)
	}
	if s.MemGB != Profile7g.MemGB {
		t.Errorf("MemGB changed: %v", s.MemGB)
	}
	if s.CacheFrac != Profile7g.CacheFrac {
		t.Errorf("CacheFrac changed: %v (MPS caps do not partition cache)", s.CacheFrac)
	}
	// Degenerate fractions return the profile unchanged.
	for _, f := range []float64{0, -1, 1, 2} {
		if got := Scaled(Profile4g, f); got != Profile4g {
			t.Errorf("Scaled(4g, %v) = %+v, want unchanged", f, got)
		}
	}
}

func TestGeometryValidation(t *testing.T) {
	tests := []struct {
		name    string
		profs   []Profile
		wantErr bool
	}{
		{"7g alone", []Profile{Profile7g}, false},
		{"4g+3g", []Profile{Profile4g, Profile3g}, false},
		{"4g+2g+1g", []Profile{Profile4g, Profile2g, Profile1g}, false},
		{"3g+3g+1g", []Profile{Profile3g, Profile3g, Profile1g}, false},
		{"7×1g", []Profile{Profile1g, Profile1g, Profile1g, Profile1g, Profile1g, Profile1g, Profile1g}, false},
		{"2g×3+1g", []Profile{Profile2g, Profile2g, Profile2g, Profile1g}, false},
		{"empty", nil, true},
		{"over slots 4g+4g", []Profile{Profile4g, Profile4g}, true},
		{"7g not alone", []Profile{Profile7g, Profile1g}, true},
		{"3×3g over max count", []Profile{Profile3g, Profile3g, Profile3g}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewGeometry(tt.profs...)
			if (err != nil) != tt.wantErr {
				t.Errorf("NewGeometry err = %v, wantErr %v", err, tt.wantErr)
			}
			if err != nil && !errors.Is(err, ErrInvalidGeometry) {
				t.Errorf("error %v does not wrap ErrInvalidGeometry", err)
			}
		})
	}
}

func TestParseGeometry(t *testing.T) {
	tests := []struct {
		spec    string
		want    string
		wantErr bool
	}{
		{"4g,3g", "(4g, 3g)", false},
		{"(4g, 2g, 1g)", "(4g, 2g, 1g)", false},
		{"3g, 4g", "(4g, 3g)", false}, // normalized descending
		{"", "", true},
		{"4g,9g", "", true},
	}
	for _, tt := range tests {
		g, err := ParseGeometry(tt.spec)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseGeometry(%q) err = %v, wantErr %v", tt.spec, err, tt.wantErr)
			continue
		}
		if err == nil && g.String() != tt.want {
			t.Errorf("ParseGeometry(%q) = %s, want %s", tt.spec, g, tt.want)
		}
	}
}

func TestGeometryEqualIgnoresOrder(t *testing.T) {
	a := MustGeometry(Profile4g, Profile3g)
	b := MustGeometry(Profile3g, Profile4g)
	if !a.Equal(b) {
		t.Error("equal geometries reported unequal")
	}
	c := MustGeometry(Profile4g, Profile2g, Profile1g)
	if a.Equal(c) {
		t.Error("different geometries reported equal")
	}
}

// mapEqual is the map-based Equal the prefix-count comparison
// replaced, kept as its reference.
func mapEqual(g, other Geometry) bool {
	if len(g) != len(other) {
		return false
	}
	counts := func(g Geometry) map[string]int {
		c := make(map[string]int, len(g))
		for _, p := range g {
			c[prefix(p.Name)]++
		}
		return c
	}
	a, b := counts(g), counts(other)
	for name, n := range a {
		if b[name] != n {
			return false
		}
	}
	return true
}

// TestPropertyEqualMatchesMapReference compares Equal with the
// map-based reference over every pair of valid geometries on the A100
// and their H100 translations, each also in reversed slice order, plus
// a few geometries too long to be valid, and checks that Equal
// allocates nothing.
func TestPropertyEqualMatchesMapReference(t *testing.T) {
	h100 := ArchH100()
	var all []Geometry
	for _, g := range ValidGeometries() {
		h, err := h100.Translate(g)
		if err != nil {
			t.Fatalf("translate %s to H100: %v", g, err)
		}
		for _, x := range []Geometry{g, h} {
			rev := x.Clone()
			slices.Reverse(rev)
			all = append(all, x, rev)
		}
	}
	valid := len(all)
	// Longer than any valid geometry, so Equal cannot use its buffer.
	long := Geometry{Profile1g, Profile1g, Profile1g, Profile1g, Profile1g, Profile1g, Profile1g, Profile1g}
	longer := append(long.Clone(), Profile2g)
	mixed := append(long[1:].Clone(), Profile2g)
	all = append(all, long, longer, mixed, append(mixed[1:].Clone(), Profile1g))
	for _, a := range all {
		for _, b := range all {
			if got, want := a.Equal(b), mapEqual(a, b); got != want {
				t.Fatalf("%s.Equal(%s) = %v, map reference says %v", a, b, got, want)
			}
		}
	}
	// The longest A100 geometry against its reversed H100 translation
	// runs Equal's whole loop.
	var a, b Geometry
	for i := 0; i < valid; i += 4 {
		if len(all[i]) > len(a) {
			a, b = all[i], all[i+3]
		}
	}
	if !a.Equal(b) {
		t.Fatalf("%s and %s should be equal", a, b)
	}
	if allocs := testing.AllocsPerRun(100, func() { a.Equal(b) }); allocs != 0 {
		t.Fatalf("Equal allocates %v times per call, want 0", allocs)
	}
}

func TestGeometryAggregates(t *testing.T) {
	g := MustGeometry(Profile4g, Profile2g, Profile1g)
	if got := g.Slots(); got != 7 {
		t.Errorf("Slots = %d, want 7", got)
	}
	if got := g.MemGB(); got != 35 {
		t.Errorf("MemGB = %v, want 35", got)
	}
}

func TestValidGeometriesAreAllValid(t *testing.T) {
	gs := ValidGeometries()
	if len(gs) == 0 {
		t.Fatal("no geometries enumerated")
	}
	seen := make(map[string]bool)
	for _, g := range gs {
		if err := g.Validate(); err != nil {
			t.Errorf("geometry %s invalid: %v", g, err)
		}
		if seen[g.String()] {
			t.Errorf("duplicate geometry %s", g)
		}
		seen[g.String()] = true
	}
	for _, want := range []string{"(7g)", "(4g, 3g)", "(4g, 2g, 1g)", "(1g, 1g, 1g, 1g, 1g, 1g, 1g)"} {
		if !seen[want] {
			t.Errorf("expected geometry %s missing", want)
		}
	}
}

// Property: every enumerated geometry respects slot and count limits.
func TestPropertyEnumeratedGeometryLimits(t *testing.T) {
	for _, g := range ValidGeometries() {
		if g.Slots() > TotalSlots {
			t.Fatalf("geometry %s exceeds %d slots", g, TotalSlots)
		}
		counts := map[string]int{}
		for _, p := range g {
			counts[p.Name]++
			if counts[p.Name] > p.MaxCount {
				t.Fatalf("geometry %s exceeds max count of %s", g, p.Name)
			}
		}
	}
}

// Property: parsing a geometry's String form round-trips.
func TestPropertyGeometryStringRoundTrip(t *testing.T) {
	f := func(idxs []uint8) bool {
		profs := []Profile{Profile4g, Profile3g, Profile2g, Profile1g}
		var sel []Profile
		for _, i := range idxs {
			sel = append(sel, profs[int(i)%len(profs)])
		}
		g, err := NewGeometry(sel...)
		if err != nil {
			return true // invalid combination, nothing to round-trip
		}
		parsed, err := ParseGeometry(g.String())
		return err == nil && parsed.Equal(g)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
