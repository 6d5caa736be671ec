package core

import (
	"math"
	"testing"
	"testing/quick"

	"protean/internal/gpu"
	"protean/internal/model"
	"protean/internal/sim"
)

// Property: TagSlices conserves BE memory — the tagged capacity equals
// min(beMem, total slice memory), and tags stay in [0, 1].
func TestPropertyTagSlicesConservesMemory(t *testing.T) {
	geoms := []gpu.Geometry{
		gpu.MustGeometry(gpu.Profile7g),
		gpu.MustGeometry(gpu.Profile4g, gpu.Profile3g),
		gpu.MustGeometry(gpu.Profile4g, gpu.Profile2g, gpu.Profile1g),
		gpu.MustGeometry(gpu.Profile3g, gpu.Profile3g, gpu.Profile1g),
	}
	f := func(memRaw uint16, geomIdx uint8) bool {
		beMem := float64(memRaw) / 1000 // up to ~65 GB
		geom := geoms[int(geomIdx)%len(geoms)]
		s := sim.New(1)
		g, err := gpu.NewGPU(s, 0, gpu.ArchA100(), geom, gpu.ShareMPS)
		if err != nil {
			return false
		}
		tags := TagSlices(g, beMem)
		tagged := 0.0
		for sl, tag := range tags {
			if tag < 0 || tag > 1 {
				return false
			}
			tagged += tag * sl.Prof.MemGB
		}
		want := math.Min(beMem, geom.MemGB())
		return math.Abs(tagged-want) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: TagSlices fills strictly smaller slices before larger ones.
func TestPropertyTagSlicesAscendingOrder(t *testing.T) {
	f := func(memRaw uint16) bool {
		beMem := float64(memRaw) / 2000
		s := sim.New(1)
		g, err := gpu.NewGPU(s, 0, gpu.ArchA100(), gpu.MustGeometry(gpu.Profile4g, gpu.Profile2g, gpu.Profile1g), gpu.ShareMPS)
		if err != nil {
			return false
		}
		tags := TagSlices(g, beMem)
		// If a larger slice carries any tag, every smaller slice must be
		// fully tagged.
		for slBig, tagBig := range tags {
			if tagBig <= 0 {
				continue
			}
			for slSmall, tagSmall := range tags {
				if slSmall.Prof.Slots < slBig.Prof.Slots && tagSmall < 1-1e-9 {
					return false
				}
			}
			// Untagged smaller slices are a violation too.
			for _, sl := range g.SlicesAscending() {
				if sl.Prof.Slots < slBig.Prof.Slots {
					if _, ok := tags[sl]; !ok {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ChooseStrictSlice returns the η-minimizing fitting slice
// among those not BE-saturated, for arbitrary resident load.
func TestPropertyChooseStrictSliceMinimizesEta(t *testing.T) {
	residents := append(model.VisionLI(), model.VisionHI()...)
	f := func(loadRaw []uint8) bool {
		s := sim.New(2)
		g, err := gpu.NewGPU(s, 0, gpu.ArchA100(), gpu.MustGeometry(gpu.Profile4g, gpu.Profile2g, gpu.Profile1g), gpu.ShareMPS)
		if err != nil {
			return false
		}
		slices := g.Slices()
		for i, raw := range loadRaw {
			if i >= 12 {
				break
			}
			m := residents[int(raw)%len(residents)]
			sl := slices[int(raw/16)%len(slices)]
			if m.MemGB(sl.Prof) > sl.Prof.MemGB {
				continue
			}
			if err := sl.Submit(&gpu.Job{W: m, Strict: raw%2 == 0}); err != nil {
				return false
			}
		}
		d := Distributor{}
		incoming := model.MustByName("ResNet 50")
		chosen, err := d.ChooseStrictSlice(g, incoming, nil)
		if err != nil {
			return false
		}
		chosenEta := Slowdown(chosen, incoming, 0)
		for _, sl := range g.Slices() {
			if incoming.MemGB(sl.Prof) > sl.Prof.MemGB {
				continue
			}
			if Slowdown(sl, incoming, 0) < chosenEta-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: BE packing never skips a smaller slice that has room.
func TestPropertyBEPackingFewestSmallest(t *testing.T) {
	f := func(loadRaw []uint8) bool {
		s := sim.New(3)
		g, err := gpu.NewGPU(s, 0, gpu.ArchA100(), gpu.MustGeometry(gpu.Profile4g, gpu.Profile2g, gpu.Profile1g), gpu.ShareMPS)
		if err != nil {
			return false
		}
		m := model.MustByName("ShuffleNet V2")
		slices := g.SlicesAscending()
		for i, raw := range loadRaw {
			if i >= 10 {
				break
			}
			sl := slices[int(raw)%len(slices)]
			if m.MemGB(sl.Prof) > sl.AvailableMemGB() {
				continue
			}
			if err := sl.Submit(&gpu.Job{W: m}); err != nil {
				return false
			}
		}
		d := Distributor{}
		chosen, err := d.ChooseBestEffortSlice(g, m)
		if err != nil {
			return false
		}
		need := m.MemGB(chosen.Prof)
		for _, sl := range slices {
			if sl == chosen {
				break
			}
			// A smaller slice preceding the choice must lack room.
			if sl.AvailableMemGB() >= need && m.MemGB(sl.Prof) <= sl.Prof.MemGB {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
