package vm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"protean/internal/market"
	"protean/internal/obs"
	"protean/internal/sim"
)

// lifecycleLog hashes a fleet's observable lifecycle: every Listener
// callback and every vm-* and lease-* trace event, with floats as bits.
type lifecycleLog struct{ h hash.Hash }

func (l *lifecycleLog) NodeDraining(node int, deadline float64) {
	fmt.Fprintf(l.h, "draining %d %x\n", node, math.Float64bits(deadline))
}
func (l *lifecycleLog) NodeDown(node int) { fmt.Fprintf(l.h, "down %d\n", node) }
func (l *lifecycleLog) NodeUp(node int, k Kind) {
	fmt.Fprintf(l.h, "up %d %d\n", node, int(k))
}

func (l *lifecycleLog) Enabled() bool { return true }
func (l *lifecycleLog) Emit(ev obs.Event) {
	switch ev.Kind {
	case obs.KindVMLease, obs.KindVMNotice, obs.KindVMDown,
		obs.KindLeaseRequest, obs.KindLeaseBind:
		fmt.Fprintf(l.h, "%s %x n=%d b=%d m=%q v=%x d=%q\n", ev.Kind, math.Float64bits(ev.T),
			ev.Node, ev.Batch, ev.Model, math.Float64bits(ev.Value), ev.Detail)
	}
}

func (l *lifecycleLog) cost(tag string, c CostReport) {
	fmt.Fprintf(l.h, "%s %x %x %x\n", tag, math.Float64bits(c.Dollars),
		math.Float64bits(c.OnDemandBaseline), math.Float64bits(c.Normalized))
}

// lifecycleGolden is the SHA-256 of each case's lifecycle log. A fold
// or refactor of the fleet must leave every one unchanged.
var lifecycleGolden = map[string]string{
	"tariff/on-demand-only/high/ci45":     "071c8ce841917c65ff8ad1d11a59c267c6c2a8055f1179dd2427253d0ddba497",
	"tariff/on-demand-only/moderate/ci45": "071c8ce841917c65ff8ad1d11a59c267c6c2a8055f1179dd2427253d0ddba497",
	"tariff/on-demand-only/low/ci45":      "071c8ce841917c65ff8ad1d11a59c267c6c2a8055f1179dd2427253d0ddba497",
	"tariff/spot-preferred/high/ci45":     "bd55dfa90fd5d4d849801e7835029fdc9172f17bef5e65230102458de9df00fb",
	"tariff/spot-preferred/moderate/ci45": "647310d046abe88fa7540762da27c9e87e50b14c056fa23744b45ac8abc30ce7",
	"tariff/spot-preferred/low/ci45":      "0c7d25c21e2dee1b929d3dff1677d47b6e690b5ea7d765b58da96b20d690463e",
	"tariff/spot-only/high/ci45":          "bd55dfa90fd5d4d849801e7835029fdc9172f17bef5e65230102458de9df00fb",
	"tariff/spot-only/moderate/ci45":      "a4051823fc71e2d5e79a93e4db73193f80bc71f3048f8393da85e6e6e407b0e5",
	"tariff/spot-only/low/ci45":           "fb11d6c00a682d56841846e26c53ccffb91a3f53b8d3a9099618ce6287b06724",
	"market/on-demand-only/ci45":          "9dec006d719640f09f840c4172b89c5d85dddb531bc5c06b75821ad2fecd72b2",
	"market/cheapest-spot/ci45":           "06827c380856020d7deb6bd32064e8b27bafefefa86dd18a9791492f2b87804a",
	"market/forecast-migrate/ci45":        "da2d6a30cc24f570499f27eb816edadd19f28366f17a42f728ca2991e573bac1",
	"market/knapsack($81/h)/ci45":         "5d2a2b4a77781409d7238459d7dc9f4e855b56f3b6351c626ad10790184060d1",
	"market-tight/knapsack/ci45":          "cee9a283d0d62ecf31aadfce1cc93455979a8951798b055b5d86ade7b13c41c7",
	"tariff/on-demand-only/high/ci0":      "071c8ce841917c65ff8ad1d11a59c267c6c2a8055f1179dd2427253d0ddba497",
	"tariff/on-demand-only/moderate/ci0":  "071c8ce841917c65ff8ad1d11a59c267c6c2a8055f1179dd2427253d0ddba497",
	"tariff/on-demand-only/low/ci0":       "071c8ce841917c65ff8ad1d11a59c267c6c2a8055f1179dd2427253d0ddba497",
	"tariff/spot-preferred/high/ci0":      "bd55dfa90fd5d4d849801e7835029fdc9172f17bef5e65230102458de9df00fb",
	"tariff/spot-preferred/moderate/ci0":  "102f6ccf079446e1c85272aafccde5286b470798f511fcab8770861611187db3",
	"tariff/spot-preferred/low/ci0":       "ab8ca5f38807957c4840716883cf1b13d8a6bc2b03b91a344cdd433610e61fd6",
	"tariff/spot-only/high/ci0":           "bd55dfa90fd5d4d849801e7835029fdc9172f17bef5e65230102458de9df00fb",
	"tariff/spot-only/moderate/ci0":       "d8826a3ac05368ea4e15f6476bcf2929d09d7bbfa4a0d103a775690099626d07",
	"tariff/spot-only/low/ci0":            "2eca1dae8148df884c1c65ddc5cbdb994721c39d9fe523449edba96e40b25886",
	"market/on-demand-only/ci0":           "9dec006d719640f09f840c4172b89c5d85dddb531bc5c06b75821ad2fecd72b2",
	"market/cheapest-spot/ci0":            "88728efd02fc48b68e4488ad709af283cf07d3b531818c2dbfb403af05dc85df",
	"market/forecast-migrate/ci0":         "be1e7b2648670fbc7462565ea845f18fee8ef5b6876511fe910284ff2c6a61f5",
	"market/knapsack($81/h)/ci0":          "8ac67294478adebf0907a970a4891efa4d982256055e4a0452f2c0708f52d5c7",
	"market-tight/knapsack/ci0":           "ee533839f03a0738d1eeede9e2c60fb757f29c61569c7450c15ccd7c10d0286d",
}

// TestFleetLifecycleGolden pins the fleet's lease lifecycle on both
// backings: 6 nodes over 2 h of virtual time with three storms, under
// every tariff mode and availability at two check intervals, and under
// every marketplace procurement policy. SpotOnly at low availability
// takes the retry-while-down path; SpotPreferred at low availability
// takes the on-demand fallback.
func TestFleetLifecycleGolden(t *testing.T) {
	type fleetCase struct {
		name string
		cfg  Config
		pol  func() market.Policy
		inv  int // per-provider spot inventory; 0 keeps the default catalog's
	}
	var cases []fleetCase
	for _, ci := range []float64{45, 0} {
		for _, mode := range []Mode{ModeOnDemandOnly, ModeSpotPreferred, ModeSpotOnly} {
			for _, av := range []Availability{AvailabilityHigh, AvailabilityModerate, AvailabilityLow} {
				cases = append(cases, fleetCase{
					name: fmt.Sprintf("tariff/%s/%s/ci%g", mode, av.Name, ci),
					cfg:  Config{Mode: mode, Availability: av, CheckInterval: ci},
				})
			}
		}
		for _, pol := range []func() market.Policy{
			market.OnDemandOnly, market.CheapestSpot,
			func() market.Policy { return market.ForecastMigrate(0.15) },
			func() market.Policy { return market.BudgetKnapsack(6 * 13.5) },
		} {
			cases = append(cases, fleetCase{
				name: fmt.Sprintf("market/%s/ci%g", pol().Name(), ci),
				cfg:  Config{CheckInterval: ci},
				pol:  pol,
			})
		}
		// Two spot leases per provider and a budget below two spot
		// nodes: procurement fails, so market nodes sit down and retry.
		cases = append(cases, fleetCase{
			name: fmt.Sprintf("market-tight/knapsack/ci%g", ci),
			cfg:  Config{CheckInterval: ci},
			pol:  func() market.Policy { return market.BudgetKnapsack(20) },
			inv:  2,
		})
	}
	got := make(map[string]string, len(cases))
	for _, tc := range cases {
		s := sim.New(11)
		log := &lifecycleLog{h: sha256.New()}
		s.SetTracer(log)
		cfg := tc.cfg
		cfg.Nodes = 6
		cfg.Listener = log
		if tc.pol != nil {
			catalog := DefaultMarketCatalog()
			for i := range catalog {
				if tc.inv > 0 {
					catalog[i].SpotInventory = tc.inv
				}
			}
			m, err := market.New(s, market.Config{}, catalog)
			if err != nil {
				t.Fatalf("%s: market.New: %v", tc.name, err)
			}
			if err := m.Start(); err != nil {
				t.Fatalf("%s: market.Start: %v", tc.name, err)
			}
			cfg.Market, cfg.Procurement = m, tc.pol()
		}
		f, err := NewFleet(s, cfg)
		if err != nil {
			t.Fatalf("%s: NewFleet: %v", tc.name, err)
		}
		if err := f.Start(); err != nil {
			t.Fatalf("%s: Start: %v", tc.name, err)
		}
		for _, st := range []struct {
			at     float64
			domain int
			frac   float64
		}{{1500, 0, 0.5}, {3300, 1, 1}, {5100, 0, 1}} {
			if _, err := s.At(st.at, func() {
				fmt.Fprintf(log.h, "storm %d\n", f.StormDomain(st.domain, st.frac))
			}); err != nil {
				t.Fatalf("%s: At: %v", tc.name, err)
			}
		}
		if err := s.RunUntil(7200); err != nil {
			t.Fatalf("%s: RunUntil: %v", tc.name, err)
		}
		log.cost("cost", f.Cost(0))
		f.Stop()
		log.cost("final", f.Cost(0))
		fmt.Fprintf(log.h, "notices %d failures %d migrations %d\n", f.notices, f.failures, f.Migrations())
		got[tc.name] = hex.EncodeToString(log.h.Sum(nil))
	}
	for _, tc := range cases {
		if want, ok := lifecycleGolden[tc.name]; !ok || got[tc.name] != want {
			t.Errorf("%q: %q,", tc.name, got[tc.name])
		}
	}
}
