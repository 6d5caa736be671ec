package cluster

import (
	"fmt"
	"testing"

	"protean/internal/chaos"
	"protean/internal/core"
	"protean/internal/market"
	"protean/internal/model"
	"protean/internal/sim"
	"protean/internal/vm"
)

// TestRunConservesRequests checks request conservation on the batch
// path across every scheme, with and without faults, on each kind of
// fleet: every offered request of the trace completes or drops exactly
// once, and the recorder holds exactly the completed ones.
func TestRunConservesRequests(t *testing.T) {
	schemes := []struct {
		name string
		f    core.Factory
	}{
		{"PROTEAN", core.NewProtean(core.ProteanConfig{})},
		{"Oracle", core.NewOracle()},
		{"Molecule", core.NewMoleculeBeta()},
		{"INFless", core.NewINFlessLlama()},
		{"NaiveSlicing", core.NewNaiveSlicing(nil)},
		{"MIGOnly", core.NewMIGOnly(nil)},
		{"MPSOnly", core.NewMPSOnly()},
		{"NoSharing", core.NewNoSharing()},
		{"GPUlet", core.NewGPUlet(0, 0)},
	}
	chaosCfgs := []struct {
		name string
		cfg  chaos.Config
	}{
		{"calm", chaos.Config{}},
		{"chaos2x", chaos.DefaultConfig().Scaled(2)},
	}
	fleets := []struct {
		name string
		// vm builds the fleet config on the run's sim: a marketplace
		// must exist on that sim before the cluster.
		vm func(t *testing.T, s *sim.Sim) *vm.Config
	}{
		{"nofleet", func(*testing.T, *sim.Sim) *vm.Config { return nil }},
		{"tariff-low", func(*testing.T, *sim.Sim) *vm.Config {
			return &vm.Config{Mode: vm.ModeSpotPreferred, Availability: vm.AvailabilityLow}
		}},
		{"market", func(t *testing.T, s *sim.Sim) *vm.Config {
			mk, err := market.New(s, market.Config{}, vm.DefaultMarketCatalog())
			if err != nil {
				t.Fatalf("market.New: %v", err)
			}
			if err := mk.Start(); err != nil {
				t.Fatalf("market Start: %v", err)
			}
			return &vm.Config{Market: mk, Procurement: market.CheapestSpot()}
		}},
	}
	const nodes, duration = 3, 30.0
	for mi, strict := range []string{"ResNet 50", "DPN 92", "ALBERT"} {
		m := model.MustByName(strict)
		reqs := genTrace(t, 400, duration, 0.5, strict, model.OppositeClassPool(m), int64(10+mi))
		for _, sc := range schemes {
			for _, ch := range chaosCfgs {
				for _, fl := range fleets {
					name := fmt.Sprintf("%s/%s/%s/%s", strict, sc.name, ch.name, fl.name)
					t.Run(name, func(t *testing.T) {
						s := sim.New(int64(20 + mi))
						c, err := New(s, Config{
							Nodes:  nodes,
							Policy: sc.f,
							Chaos:  ch.cfg,
							VM:     fl.vm(t, s),
						})
						if err != nil {
							t.Fatalf("New: %v", err)
						}
						res, err := c.Run(reqs, duration)
						if err != nil {
							t.Fatalf("Run: %v", err)
						}
						a := res.Availability
						if a.Offered != len(reqs) || a.Completed+a.Dropped != a.Offered {
							t.Errorf("offered %d of %d requests; completed %d + dropped %d",
								a.Offered, len(reqs), a.Completed, a.Dropped)
						}
						if got := res.Recorder.Requests(); got != a.Completed {
							t.Errorf("recorder holds %d requests, %d completed", got, a.Completed)
						}
					})
				}
			}
		}
	}
}
