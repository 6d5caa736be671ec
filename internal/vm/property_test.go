package vm

import (
	"testing"
	"testing/quick"

	"protean/internal/sim"
)

// Property: under any revocation probability and mode, a fleet never
// reports more up nodes than slots, and total spending never exceeds the
// all-on-demand baseline (spot VMs are strictly cheaper and down nodes
// do not bill).
func TestPropertyFleetCostAndCapacityBounds(t *testing.T) {
	modes := []Mode{ModeOnDemandOnly, ModeSpotPreferred, ModeSpotOnly}
	f := func(prevRaw uint8, modeRaw uint8, seed int64, horizonRaw uint8) bool {
		s := sim.New(seed)
		prev := float64(prevRaw) / 255
		mode := modes[int(modeRaw)%len(modes)]
		nodes := 3
		fleet, err := NewFleet(s, Config{
			Nodes:         nodes,
			Mode:          mode,
			Availability:  Availability{Name: "fuzz", PRev: prev},
			CheckInterval: 15,
		})
		if err != nil {
			return false
		}
		if err := fleet.Start(); err != nil {
			return false
		}
		horizon := 60 + float64(horizonRaw)*10
		ok := true
		tick, err := s.Every(5, func() {
			if fleet.UpCount() < 0 || fleet.UpCount() > nodes {
				ok = false
			}
		})
		if err != nil {
			return false
		}
		if err := s.RunUntil(horizon); err != nil {
			return false
		}
		tick.Stop()
		report := fleet.Cost(0)
		if report.Dollars < 0 || report.Dollars > report.OnDemandBaseline+1e-9 {
			return false
		}
		fleet.Stop()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: an on-demand-only fleet's normalized cost is exactly 1
// regardless of seed or horizon.
func TestPropertyOnDemandCostIsBaseline(t *testing.T) {
	f := func(seed int64, horizonRaw uint8) bool {
		s := sim.New(seed)
		fleet, err := NewFleet(s, Config{Nodes: 2, Mode: ModeOnDemandOnly})
		if err != nil {
			return false
		}
		if err := fleet.Start(); err != nil {
			return false
		}
		if err := s.RunUntil(30 + float64(horizonRaw)); err != nil {
			return false
		}
		report := fleet.Cost(0)
		return report.Normalized > 0.9999 && report.Normalized < 1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
