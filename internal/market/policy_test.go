package market

import (
	"testing"

	"protean/internal/sim"
)

// staticView builds a policy view without a live market.
func staticView(ps ...ProviderView) View {
	return View{Providers: ps}
}

func TestOnDemandOnlyChoosesCheapestOnDemand(t *testing.T) {
	v := staticView(
		ProviderView{Provider: 0, OnDemandHourly: 32, SpotHourly: 5, SpotFree: 10},
		ProviderView{Provider: 1, OnDemandHourly: 28, SpotHourly: 4, SpotFree: 10},
		ProviderView{Provider: 2, OnDemandHourly: 30, SpotHourly: 3, SpotFree: 10},
	)
	dec, ok := OnDemandOnly().Choose(v)
	if !ok || dec.Provider != 1 || dec.Kind != KindOnDemand {
		t.Errorf("Choose = %+v, %v; want provider 1 on-demand", dec, ok)
	}
	if migs := OnDemandOnly().Rebalance(v, []*Lease{{Provider: 0}}); migs != nil {
		t.Errorf("on-demand-only proposed migrations: %+v", migs)
	}
}

func TestCheapestSpotPrefersSpotFallsBackOnDemand(t *testing.T) {
	v := staticView(
		ProviderView{Provider: 0, OnDemandHourly: 32, SpotHourly: 9, SpotFree: 1},
		ProviderView{Provider: 1, OnDemandHourly: 28, SpotHourly: 7, SpotFree: 0}, // cheaper but sold out
		ProviderView{Provider: 2, OnDemandHourly: 30, SpotHourly: 8, SpotFree: 2},
	)
	dec, ok := CheapestSpot().Choose(v)
	if !ok || dec.Provider != 2 || dec.Kind != KindSpot {
		t.Errorf("Choose = %+v, %v; want provider 2 spot", dec, ok)
	}
	for i := range v.Providers {
		v.Providers[i].SpotFree = 0
	}
	dec, ok = CheapestSpot().Choose(v)
	if !ok || dec.Provider != 1 || dec.Kind != KindOnDemand {
		t.Errorf("sold-out Choose = %+v, %v; want provider 1 on-demand", dec, ok)
	}
}

func TestForecastMigrateChoosesByForecastNotSpotPrice(t *testing.T) {
	// Provider 0's instantaneous price dipped but its forecast is high;
	// provider 1 is the steadier bet.
	v := staticView(
		ProviderView{Provider: 0, OnDemandHourly: 32, SpotHourly: 2, SpotForecast: 12, SpotFree: 5},
		ProviderView{Provider: 1, OnDemandHourly: 30, SpotHourly: 9, SpotForecast: 8, SpotFree: 5},
	)
	dec, ok := ForecastMigrate(0).Choose(v)
	if !ok || dec.Provider != 1 || dec.Kind != KindSpot {
		t.Errorf("Choose = %+v, %v; want provider 1 spot", dec, ok)
	}
}

func TestForecastMigrateProposesProfitableMigrations(t *testing.T) {
	v := staticView(
		ProviderView{Provider: 0, OnDemandHourly: 32, SpotHourly: 20, SpotForecast: 20, SpotFree: 5},
		ProviderView{Provider: 1, OnDemandHourly: 30, SpotHourly: 6, SpotForecast: 6, SpotFree: 1},
	)
	bound := []*Lease{
		{ID: 1, Provider: 0, Kind: KindSpot},
		{ID: 2, Provider: 0, Kind: KindSpot},
	}
	migs := ForecastMigrate(0.15).Rebalance(v, bound)
	// Only one spot slot is free at provider 1, so only the first lease
	// moves; the second has no alternative beating 20×0.85.
	if len(migs) != 1 {
		t.Fatalf("got %d migrations, want 1: %+v", len(migs), migs)
	}
	if migs[0].Lease != bound[0] || migs[0].To != (Decision{Provider: 1, Kind: KindSpot}) {
		t.Errorf("migration = %+v", migs[0])
	}
	// Below-margin savings must not trigger churn.
	v.Providers[1].SpotForecast = 18
	v.Providers[1].SpotHourly = 18
	if migs := ForecastMigrate(0.15).Rebalance(v, bound); len(migs) != 0 {
		t.Errorf("sub-margin migration proposed: %+v", migs)
	}
}

func TestBudgetKnapsackChooseRespectsHeadroom(t *testing.T) {
	v := staticView(
		ProviderView{Provider: 0, OnDemandHourly: 32, SpotHourly: 10, SpotFree: 2},
		ProviderView{Provider: 1, OnDemandHourly: 28, SpotHourly: 12, SpotFree: 2},
	)
	v.SpendRate = 35
	p := BudgetKnapsack(50) // $15/h headroom: only spot fits
	dec, ok := p.Choose(v)
	if !ok || dec != (Decision{Provider: 0, Kind: KindSpot}) {
		t.Errorf("Choose = %+v, %v; want provider 0 spot", dec, ok)
	}
	v.SpendRate = 49.5 // nothing fits: cheapest spot keeps the node alive
	dec, ok = p.Choose(v)
	if !ok || dec.Kind != KindSpot || dec.Provider != 0 {
		t.Errorf("over-budget Choose = %+v, %v; want cheapest spot", dec, ok)
	}
}

func TestSolveKnapsackOptimum(t *testing.T) {
	// Three options: cheap flaky spot, pricier steadier spot, on-demand.
	opts := []knapOption{
		{dec: Decision{Provider: 0, Kind: KindSpot}, rate: 5, util: 0.5, cap: 4},
		{dec: Decision{Provider: 1, Kind: KindSpot}, rate: 10, util: 0.9, cap: 4},
		{dec: Decision{Provider: 0, Kind: KindOnDemand}, rate: 30, util: 1, cap: 4},
	}
	// Budget 38, 4 slots: all-steady-spot costs 40 and doesn't fit, so
	// the best mix is 3× steady spot + 1 cheap spot (35 ≤ 38,
	// util 3.2); on-demand never fits.
	counts := solveKnapsack(opts, 4, 38)
	if counts == nil {
		t.Fatal("solveKnapsack returned nil")
	}
	want := []int{1, 3, 0}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
	// A lavish budget buys all on-demand (max utility).
	counts = solveKnapsack(opts, 4, 1000)
	if counts == nil || counts[2] != 4 {
		t.Errorf("lavish counts = %v, want all on-demand", counts)
	}
	// An impossible budget (cannot fill 4 slots) returns nil.
	if counts := solveKnapsack(opts, 4, 10); counts != nil {
		t.Errorf("unaffordable counts = %v, want nil", counts)
	}
}

func TestSolveKnapsackNeverExceedsBudget(t *testing.T) {
	opts := []knapOption{
		{dec: Decision{Provider: 0, Kind: KindSpot}, rate: 9.83, util: 0.6, cap: 8},
		{dec: Decision{Provider: 1, Kind: KindSpot}, rate: 18.02, util: 0.85, cap: 8},
		{dec: Decision{Provider: 1, Kind: KindOnDemand}, rate: 30.08, util: 1, cap: 8},
	}
	for _, hourly := range []float64{80, 120, 160, 240} {
		counts := solveKnapsack(opts, 8, hourly)
		if counts == nil {
			t.Fatalf("budget %v: nil solution", hourly)
		}
		cost, slots := 0.0, 0
		for i, c := range counts {
			cost += float64(c) * opts[i].rate
			slots += c
		}
		if slots != 8 {
			t.Errorf("budget %v: %d slots assigned, want 8", hourly, slots)
		}
		if cost > hourly+1e-9 {
			t.Errorf("budget %v: solution costs %v", hourly, cost)
		}
	}
}

func TestBudgetKnapsackRebalanceMovesTowardOptimum(t *testing.T) {
	v := staticView(
		ProviderView{Provider: 0, OnDemandHourly: 32, SpotHourly: 5, SpotFree: 0, PRev: 0.5},
		ProviderView{Provider: 1, OnDemandHourly: 30, SpotHourly: 12, SpotFree: 4, PRev: 0.1},
	)
	// All four leases sit on the flaky provider; with budget 60 the
	// optimum is 4× provider-1 spot (48 ≤ 60, util 3.6 vs 2.0). The
	// per-round cap limits churn to two migrations.
	bound := []*Lease{
		{ID: 1, Provider: 0, Kind: KindSpot},
		{ID: 2, Provider: 0, Kind: KindSpot},
		{ID: 3, Provider: 0, Kind: KindSpot},
		{ID: 4, Provider: 0, Kind: KindSpot},
	}
	migs := BudgetKnapsack(60).Rebalance(v, bound)
	if len(migs) != maxMigrationsPerRound {
		t.Fatalf("got %d migrations, want %d: %+v", len(migs), maxMigrationsPerRound, migs)
	}
	for _, mg := range migs {
		if mg.To != (Decision{Provider: 1, Kind: KindSpot}) {
			t.Errorf("migration target = %+v, want provider 1 spot", mg.To)
		}
	}
}

// TestPoliciesAreDeterministicOverLiveMarket drives each policy over a
// running market and pins that repeated runs agree exactly.
func TestPoliciesAreDeterministicOverLiveMarket(t *testing.T) {
	run := func(p Policy) float64 {
		s := sim.New(42)
		m := newTestMarket(t, s, Config{})
		var leases []*Lease
		for i := 0; i < 4; i++ {
			dec, ok := p.Choose(m.View())
			if !ok {
				t.Fatalf("%s: no initial decision", p.Name())
			}
			l, err := m.Request("c", dec.Provider, dec.Kind, func(lz *Lease) { _ = m.Bind(lz) })
			if err != nil {
				t.Fatalf("%s: request: %v", p.Name(), err)
			}
			leases = append(leases, l)
		}
		if err := s.RunUntil(900); err != nil {
			t.Fatalf("RunUntil: %v", err)
		}
		for _, l := range leases {
			m.Release(l)
		}
		return m.TotalDollars()
	}
	for _, mk := range []func() Policy{
		OnDemandOnly, CheapestSpot,
		func() Policy { return ForecastMigrate(0.15) },
		func() Policy { return BudgetKnapsack(100) },
	} {
		a, b := run(mk()), run(mk())
		if a != b { // bitwise: determinism check
			t.Errorf("%s: repeated runs disagree: %v != %v", mk().Name(), a, b)
		}
		if a <= 0 {
			t.Errorf("%s: non-positive spend %v", mk().Name(), a)
		}
	}
}

func TestPolicyNames(t *testing.T) {
	if n := BudgetKnapsack(120).Name(); n != "knapsack($120/h)" {
		t.Errorf("knapsack name = %q", n)
	}
	names := map[string]bool{}
	for _, p := range []Policy{OnDemandOnly(), CheapestSpot(), ForecastMigrate(0), BudgetKnapsack(50)} {
		if p.Name() == "" || names[p.Name()] {
			t.Errorf("duplicate or empty policy name %q", p.Name())
		}
		names[p.Name()] = true
	}
}
