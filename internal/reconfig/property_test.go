package reconfig

import (
	"testing"
	"testing/quick"

	"protean/internal/gpu"
)

// Property: Plan always produces a geometry that validates on the A100
// and contains a 4g slice for strict work, for arbitrary inputs.
func TestPropertyPlanAlwaysValid(t *testing.T) {
	currents := []gpu.Geometry{
		geom("7g"), geom("4g,3g"), geom("4g,2g,1g"), geom("3g,3g,1g"),
	}
	f := func(memRaw, countRaw uint16, curIdx uint8, window uint8) bool {
		p := New(Config{WaitLimit: -1})
		d := p.Plan(PlanInput{
			Current:       currents[int(curIdx)%len(currents)],
			BEMemPerBatch: float64(memRaw) / 1000,
			PredBEBatches: float64(countRaw) / 100,
			WindowSeconds: float64(window%10) / 2,
			BESolo: func(prof gpu.Profile) float64 {
				return 0.05 / prof.ComputeFrac
			},
		})
		if err := d.Desired.Validate(); err != nil {
			return false
		}
		for _, prof := range d.Desired {
			if prof.Name == "4g" {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the wait counter never exceeds the limit and resets after
// every reconfiguration decision.
func TestPropertyHysteresisBounded(t *testing.T) {
	f := func(memsRaw []uint16) bool {
		const limit = 3
		p := New(Config{WaitLimit: limit})
		cur := geom("4g,2g,1g")
		streak := 0
		for _, raw := range memsRaw {
			d := p.Plan(PlanInput{
				Current:       cur,
				BEMemPerBatch: float64(raw) / 2000,
				PredBEBatches: 2,
			})
			if d.WaitCtr > limit {
				return false
			}
			if d.Desired.Equal(cur) {
				streak = 0
				if d.Reconfigure {
					return false // matching plan must not reconfigure
				}
				continue
			}
			streak++
			if d.Reconfigure {
				if streak < limit {
					return false // fired early
				}
				streak = 0
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the reconfiguration budget never exceeds its limit under
// arbitrary acquire/release sequences.
func TestPropertyBudgetInvariant(t *testing.T) {
	f := func(ops []bool, totalRaw uint8) bool {
		total := int(totalRaw%16) + 1
		b, err := NewBudget(total, 0.3)
		if err != nil {
			return false
		}
		limit := int(0.3 * float64(total))
		if limit < 1 {
			limit = 1
		}
		held := 0
		for _, acquire := range ops {
			if acquire {
				if b.TryAcquire() {
					held++
				}
			} else if held > 0 {
				b.Release()
				held--
			}
			if b.inFlight != held || held > limit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
