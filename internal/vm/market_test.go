package vm

import (
	"math"
	"testing"

	"protean/internal/market"
	"protean/internal/sim"
)

// marketCatalog is a two-provider catalog with frozen prices (zero
// volatility) so cost assertions are exact. Provider B never receives
// revocations and is decoupled from provider A's storms.
func marketCatalog() []market.ProviderConfig {
	return []market.ProviderConfig{
		{Name: "prov-a", SpotInventory: 8, OnDemandHourly: 32, SpotBaseHourly: 10, PRev: 0.3},
		{Name: "prov-b", SpotInventory: 8, OnDemandHourly: 30, SpotBaseHourly: 12, PRev: 0},
	}
}

func newMarketFleet(t *testing.T, s *sim.Sim, nodes int, pol market.Policy, log Listener) (*Fleet, *market.Market) {
	t.Helper()
	m, err := market.New(s, market.Config{}, marketCatalog())
	if err != nil {
		t.Fatalf("market.New: %v", err)
	}
	if err := m.Start(); err != nil {
		t.Fatalf("market.Start: %v", err)
	}
	f, err := NewFleet(s, Config{Nodes: nodes, Market: m, Procurement: pol, Listener: log})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	if err := f.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return f, m
}

func TestMarketFleetBootstrapsSynchronously(t *testing.T) {
	s := sim.New(1)
	log := &eventLog{}
	f, m := newMarketFleet(t, s, 4, market.CheapestSpot(), log)
	if f.UpCount() != 4 {
		t.Fatalf("UpCount = %d at t=0, want 4", f.UpCount())
	}
	for _, k := range log.upKinds {
		if k != KindSpot {
			t.Errorf("bootstrap node came up as %s, want spot", k)
		}
	}
	// Cheapest spot is provider A at $10: all four leases land there.
	if free := m.Quotes()[0].SpotFree; free != 4 {
		t.Errorf("provider A free = %d, want 4", free)
	}
	f.Stop()
}

func TestMarketFleetRevokesAndReplaces(t *testing.T) {
	s := sim.New(7)
	log := &eventLog{}
	f, m := newMarketFleet(t, s, 4, market.CheapestSpot(), log)
	if err := s.RunUntil(1800); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if f.notices == 0 {
		t.Fatal("no revocation notices in 30 min at P_rev 0.3")
	}
	// Replacements provision inside the notice window (25 s < 30 s), so
	// the fleet never reports a node down.
	if len(log.down) != 0 {
		t.Errorf("nodes went down: %v", log.down)
	}
	// A node may be mid-drain at the horizon (notice near t=1800 with
	// its replacement still provisioning), but never more than that.
	if f.UpCount() < 3 {
		t.Errorf("UpCount = %d, want ≥ 3", f.UpCount())
	}
	f.Stop()
	if st := m.Stats(); st.Orphans != 0 {
		t.Errorf("heartbeating fleet orphaned %d leases", st.Orphans)
	}
	// The meter must agree with the market ledger exactly.
	if got, want := f.Cost(0).Dollars, m.TotalDollars(); math.Abs(got-want) > 1e-9 {
		t.Errorf("fleet cost %v != market ledger %v", got, want)
	}
}

// TestStormPerProviderOrdering pins the chaos contract on a
// multi-provider fleet: a storm on one provider notices its spot
// leases lowest node index first.
func TestStormPerProviderOrdering(t *testing.T) {
	s := sim.New(1)
	log := &eventLog{}
	f, _ := newMarketFleet(t, s, 6, market.CheapestSpot(), log)
	if err := s.RunUntil(10); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if n := f.StormDomains(); n != 2 {
		t.Fatalf("StormDomains = %d, want 2", n)
	}
	// All six leases sit on provider A (cheapest). Half storm: notices
	// must hit nodes 0, 1, 2 in order.
	if got := f.StormDomain(0, 0.5); got != 3 {
		t.Fatalf("StormDomain notices = %d, want 3", got)
	}
	if len(log.draining) != 3 {
		t.Fatalf("draining = %v, want 3 nodes", log.draining)
	}
	for i, node := range log.draining {
		if node != i {
			t.Errorf("drain order[%d] = node %d, want %d (lowest index first)", i, node, i)
		}
	}
	f.Stop()
}

// TestStormDoesNotCrossDecoupledProviders pins storm isolation: with
// zero StormCoupling, a storm centred on provider A never revokes
// provider B's leases.
func TestStormDoesNotCrossDecoupledProviders(t *testing.T) {
	s := sim.New(1)
	log := &eventLog{}
	m, err := market.New(s, market.Config{}, marketCatalog())
	if err != nil {
		t.Fatalf("market.New: %v", err)
	}
	if err := m.Start(); err != nil {
		t.Fatalf("market.Start: %v", err)
	}
	f, err := NewFleet(s, Config{Nodes: 4, Market: m, Procurement: market.CheapestSpot(), Listener: log})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	if err := f.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	// Move nodes 2 and 3 onto provider B by hand.
	for _, node := range []int{2, 3} {
		f.migrate(node, market.Decision{Provider: 1, Kind: market.KindSpot})
	}
	if err := s.RunUntil(10); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	// Full-fraction storm on provider A: both of A's leases drain,
	// neither of B's does.
	if got := f.StormDomain(0, 1.0); got != 2 {
		t.Fatalf("storm notices = %d, want 2", got)
	}
	if len(log.draining) != 2 || log.draining[0] != 0 || log.draining[1] != 1 {
		t.Errorf("draining = %v, want [0 1] only", log.draining)
	}
	// And the reverse: a storm on B leaves A's (replaced) leases alone.
	// Nodes 0 and 1 are draining, so only B's two leases are eligible.
	if got := f.StormDomain(1, 1.0); got != 2 {
		t.Fatalf("storm on B notices = %d, want 2", got)
	}
	if len(log.draining) != 4 || log.draining[2] != 2 || log.draining[3] != 3 {
		t.Errorf("draining after B storm = %v, want [0 1 2 3]", log.draining)
	}
	f.Stop()
}

// TestStormCouplingSpillsProportionally: with coupling 0.5, a storm on
// provider A at fraction 1.0 also notices ceil(0.5 × eligible) of
// provider B's leases.
func TestStormCouplingSpillsProportionally(t *testing.T) {
	s := sim.New(1)
	catalog := marketCatalog()
	catalog[1].StormCoupling = 0.5
	m, err := market.New(s, market.Config{}, catalog)
	if err != nil {
		t.Fatalf("market.New: %v", err)
	}
	if err := m.Start(); err != nil {
		t.Fatalf("market.Start: %v", err)
	}
	log := &eventLog{}
	f, err := NewFleet(s, Config{Nodes: 4, Market: m, Procurement: market.CheapestSpot(), Listener: log})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	if err := f.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	for _, node := range []int{2, 3} {
		f.migrate(node, market.Decision{Provider: 1, Kind: market.KindSpot})
	}
	if err := s.RunUntil(10); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	// A's 2 leases at frac 1.0 plus ceil(0.5 × 2) = 1 of B's.
	if got := f.StormDomain(0, 1.0); got != 3 {
		t.Fatalf("coupled storm notices = %d, want 3", got)
	}
	if len(log.draining) != 3 || log.draining[2] != 2 {
		t.Errorf("draining = %v, want spill to hit node 2 first", log.draining)
	}
	f.Stop()
}

func TestMarketFleetMigratesTowardCheaperCapacity(t *testing.T) {
	s := sim.New(3)
	// Flaky-but-cheap provider A vs pricier steady B; the forecast
	// policy starts everything on A and the knapsack's reliability
	// objective is not in play here — use ForecastMigrate with B's spot
	// price dropping via catalog choice. Simplest deterministic route:
	// start on B (cheaper forecast initially flipped) — instead pin
	// migration mechanics directly: bootstrap on A at $10, then the
	// EWMA forecast tracks a frozen $6 price on B after a reprice-like
	// catalog where B is cheaper. With zero volatility prices never
	// move, so make B cheaper outright and bootstrap manually on A.
	m, err := market.New(s, market.Config{}, []market.ProviderConfig{
		{Name: "prov-a", SpotInventory: 8, OnDemandHourly: 32, SpotBaseHourly: 10, PRev: 0},
		{Name: "prov-b", SpotInventory: 8, OnDemandHourly: 30, SpotBaseHourly: 6, PRev: 0},
	})
	if err != nil {
		t.Fatalf("market.New: %v", err)
	}
	if err := m.Start(); err != nil {
		t.Fatalf("market.Start: %v", err)
	}
	f, err := NewFleet(s, Config{
		Nodes:       2,
		Market:      m,
		Procurement: market.ForecastMigrate(0.15),
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	if err := f.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	// Policy bootstraps straight onto B ($6). Force both onto A so the
	// rebalance pass has something to fix.
	for node := 0; node < 2; node++ {
		f.migrate(node, market.Decision{Provider: 0, Kind: market.KindSpot})
	}
	if err := s.RunUntil(600); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if f.Migrations() < 4 { // 2 manual + ≥2 rebalance
		t.Fatalf("Migrations = %d, want the rebalancer to move both nodes back", f.Migrations())
	}
	for node := 0; node < 2; node++ {
		l := f.leaseOf(node)
		if l == nil || l.Provider != 1 {
			t.Errorf("node %d on provider %v, want prov-b after rebalance", node, l)
		}
	}
	f.Stop()
}

// TestMarketFleetRejectsTariffFields: a market fleet takes its policy,
// prices and revocation profiles from Procurement and the catalog, so
// setting the tariff's Mode, Pricing or Availability beside Market is
// an error rather than a silently ignored field.
func TestMarketFleetRejectsTariffFields(t *testing.T) {
	s := sim.New(1)
	m, err := market.New(s, market.Config{}, marketCatalog())
	if err != nil {
		t.Fatalf("market.New: %v", err)
	}
	pol := market.CheapestSpot()
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"market only", Config{Procurement: pol}, false},
		{"check interval", Config{Procurement: pol, CheckInterval: 45}, false},
		{"mode", Config{Procurement: pol, Mode: ModeSpotPreferred}, true},
		{"pricing", Config{Procurement: pol, Pricing: PricingGCP}, true},
		{"availability", Config{Procurement: pol, Availability: AvailabilityLow}, true},
		{"zero-P_rev availability", Config{Procurement: pol, Availability: AvailabilityHigh}, true},
		{"no procurement", Config{}, true},
	}
	for _, tt := range tests {
		cfg := tt.cfg
		cfg.Nodes, cfg.Market = 2, m
		if _, err := NewFleet(s, cfg); (err != nil) != tt.wantErr {
			t.Errorf("%s: NewFleet error = %v, want error %v", tt.name, err, tt.wantErr)
		}
	}
}
