package vm

import (
	"math"
	"testing"

	"protean/internal/sim"
)

type eventLog struct {
	draining []int
	down     []int
	up       []int
	upKinds  []Kind
}

func (l *eventLog) NodeDraining(node int, _ float64) { l.draining = append(l.draining, node) }
func (l *eventLog) NodeDown(node int)                { l.down = append(l.down, node) }
func (l *eventLog) NodeUp(node int, k Kind) {
	l.up = append(l.up, node)
	l.upKinds = append(l.upKinds, k)
}

var _ Listener = (*eventLog)(nil)

func TestTable3PricingSavings(t *testing.T) {
	tests := []struct {
		pricing Pricing
		want    float64
	}{
		{PricingAWS, 0.6999},
		{PricingAzure, 0.4501},
		{PricingGCP, 0.7070},
	}
	for _, tt := range tests {
		if got := tt.pricing.Savings(); math.Abs(got-tt.want) > 0.001 {
			t.Errorf("%s savings = %.4f, want %.4f", tt.pricing.Provider, got, tt.want)
		}
	}
	if len(Providers()) != 3 {
		t.Error("Providers() should list 3 rows")
	}
}

func TestOnDemandOnlyNeverEvicts(t *testing.T) {
	s := sim.New(1)
	log := &eventLog{}
	f, err := NewFleet(s, Config{
		Nodes:        4,
		Mode:         ModeOnDemandOnly,
		Availability: AvailabilityLow,
		Listener:     log,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	if err := f.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := s.RunUntil(3600); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(log.draining) != 0 || len(log.down) != 0 {
		t.Errorf("on-demand fleet saw %d notices / %d downs", len(log.draining), len(log.down))
	}
	if f.UpCount() != 4 {
		t.Errorf("UpCount = %d, want 4", f.UpCount())
	}
	for _, k := range log.upKinds {
		if k != KindOnDemand {
			t.Errorf("node came up as %s", k)
		}
	}
	f.Stop()
	report := f.Cost(0)
	if math.Abs(report.Normalized-1.0) > 1e-9 {
		t.Errorf("normalized cost = %v, want 1.0", report.Normalized)
	}
	want := 4 * PricingAWS.OnDemandHourly
	if math.Abs(report.Dollars-want) > 1e-6 {
		t.Errorf("cost = %v, want %v", report.Dollars, want)
	}
}

func TestSpotPreferredHighAvailabilityCost(t *testing.T) {
	s := sim.New(2)
	f, err := NewFleet(s, Config{
		Nodes:        8,
		Mode:         ModeSpotPreferred,
		Availability: AvailabilityHigh,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	if err := f.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := s.RunUntil(3600); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	report := f.Cost(0)
	// All nodes on spot the whole hour → normalized ≈ spot/on-demand ≈ 0.30.
	want := PricingAWS.SpotHourly / PricingAWS.OnDemandHourly
	if math.Abs(report.Normalized-want) > 0.01 {
		t.Errorf("normalized cost = %v, want ≈%v", report.Normalized, want)
	}
	if f.Notices() != 0 {
		t.Errorf("notices = %d, want 0 at P_rev=0", f.Notices())
	}
}

func TestSpotPreferredSurvivesRevocations(t *testing.T) {
	s := sim.New(3)
	log := &eventLog{}
	f, err := NewFleet(s, Config{
		Nodes:         8,
		Mode:          ModeSpotPreferred,
		Availability:  AvailabilityModerate,
		CheckInterval: 30,
		Listener:      log,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	if err := f.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := s.RunUntil(1800); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if f.Notices() == 0 {
		t.Fatal("no revocation notices at moderate availability")
	}
	// Spot-preferred always has a replacement provisioned inside the
	// notice window, so no node ever goes down.
	if len(log.down) != 0 {
		t.Errorf("nodes went down %v times under spot-preferred", len(log.down))
	}
	if f.UpCount() != 8 {
		t.Errorf("UpCount = %d, want 8", f.UpCount())
	}
	report := f.Cost(0)
	if report.Normalized >= 1 {
		t.Errorf("normalized cost = %v, want < 1 (some spot usage)", report.Normalized)
	}
}

func TestSpotOnlyLosesCapacityUnderLowAvailability(t *testing.T) {
	s := sim.New(4)
	log := &eventLog{}
	f, err := NewFleet(s, Config{
		Nodes:         8,
		Mode:          ModeSpotOnly,
		Availability:  AvailabilityLow,
		CheckInterval: 30,
		Listener:      log,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	if err := f.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	sawOutage := false
	tick, err := s.Every(10, func() {
		if f.UpCount() < 8 {
			sawOutage = true
		}
	})
	if err != nil {
		t.Fatalf("Every: %v", err)
	}
	if err := s.RunUntil(1800); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	tick.Stop()
	if !sawOutage {
		t.Error("spot-only fleet never lost capacity at low availability")
	}
	report := f.Cost(0)
	// Spot-only cost must be at most the pure-spot rate (down nodes
	// don't bill at all).
	maxNorm := PricingAWS.SpotHourly / PricingAWS.OnDemandHourly
	if report.Normalized > maxNorm+1e-9 {
		t.Errorf("normalized cost = %v, want <= %v", report.Normalized, maxNorm)
	}
	for _, k := range log.upKinds {
		if k != KindSpot {
			t.Errorf("spot-only node came up as %s", k)
		}
	}
}

func TestSpotOnlyRecoversWhenSpotReturns(t *testing.T) {
	s := sim.New(1)
	f, err := NewFleet(s, Config{
		Nodes:         2,
		Mode:          ModeSpotOnly,
		Availability:  Availability{Name: "med", PRev: 0.5},
		CheckInterval: 20,
		RetryInterval: 10,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	if err := f.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	samples, withCapacity := 0, 0
	tick, err := s.Every(10, func() {
		samples++
		if f.UpCount() > 0 {
			withCapacity++
		}
	})
	if err != nil {
		t.Fatalf("Every: %v", err)
	}
	if err := s.RunUntil(3600); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	tick.Stop()
	// With 50% retry success every 10 s, outages are short: capacity
	// should exist most of the time.
	if frac := float64(withCapacity) / float64(samples); frac < 0.5 {
		t.Errorf("fleet had capacity only %.0f%% of the time", frac*100)
	}
	if f.SpotFailures() == 0 {
		t.Error("expected some failed spot requests at P_rev=0.5")
	}
}

func TestDrainingNodeRejectedFromScheduling(t *testing.T) {
	s := sim.New(6)
	log := &eventLog{}
	f, err := NewFleet(s, Config{
		Nodes:         1,
		Mode:          ModeSpotPreferred,
		Availability:  Availability{Name: "certain", PRev: 1},
		CheckInterval: 10,
		Listener:      log,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	// PRev=1: initial spot request fails → on-demand... but mode is
	// spot-preferred, so the node starts on-demand and never gets
	// revoked (on-demand VMs are reliable).
	if err := f.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := s.RunUntil(100); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(log.upKinds) == 0 || log.upKinds[0] != KindOnDemand {
		t.Fatalf("initial kind = %v, want on-demand fallback", log.upKinds)
	}
	if len(log.draining) != 0 {
		t.Error("on-demand lease received a revocation notice")
	}
}

func TestFleetValidation(t *testing.T) {
	s := sim.New(1)
	if _, err := NewFleet(nil, Config{Nodes: 1, Mode: ModeSpotOnly}); err == nil {
		t.Error("nil sim accepted")
	}
	if _, err := NewFleet(s, Config{Nodes: 0, Mode: ModeSpotOnly}); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := NewFleet(s, Config{Nodes: 1}); err == nil {
		t.Error("missing mode accepted")
	}
	if _, err := NewFleet(s, Config{Nodes: 1, Mode: ModeSpotOnly, Availability: Availability{PRev: 2}}); err == nil {
		t.Error("bad P_rev accepted")
	}
	f, err := NewFleet(s, Config{Nodes: 1, Mode: ModeOnDemandOnly})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	if err := f.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := f.Start(); err == nil {
		t.Error("double Start accepted")
	}
	f.Stop()
	f.Stop() // idempotent
}

func TestCostMetersPartialLease(t *testing.T) {
	s := sim.New(7)
	f, err := NewFleet(s, Config{Nodes: 1, Mode: ModeOnDemandOnly})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	if err := f.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := s.RunUntil(1800); err != nil { // half an hour
		t.Fatalf("RunUntil: %v", err)
	}
	report := f.Cost(0)
	want := PricingAWS.OnDemandHourly / 2
	if math.Abs(report.Dollars-want) > 1e-6 {
		t.Errorf("cost = %v, want %v", report.Dollars, want)
	}
}

func TestKindAndModeStrings(t *testing.T) {
	if KindSpot.String() != "spot" || KindOnDemand.String() != "on-demand" {
		t.Error("kind strings wrong")
	}
	if ModeSpotPreferred.String() != "spot-preferred" || Mode(9).String() == "" {
		t.Error("mode strings wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind renders empty")
	}
}

// TestCostExactAcrossStormRevocation is the billing regression for the
// chaos subsystem's preemption storms: when every spot node is revoked
// mid-billing-interval and drain-and-replace swaps in fresh leases
// before the eviction deadline, the old lease must stop accruing the
// moment its replacement attaches — node-seconds are billed exactly
// once, with no gap and no double-billed notice window.
func TestCostExactAcrossStormRevocation(t *testing.T) {
	const nodes = 4
	s := sim.New(7)
	f, err := NewFleet(s, Config{
		Nodes: nodes,
		Mode:  ModeSpotPreferred,
		// PRev 0: no organic revocations (no ticker, no replacement
		// fallbacks to on-demand) — the storm is the only disruption.
		Availability: AvailabilityHigh,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	if err := f.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	var notices int
	if _, err := s.At(100, func() { notices = f.StormDomain(0, 1) }); err != nil {
		t.Fatalf("At: %v", err)
	}
	if err := s.RunUntil(200); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if notices != nodes {
		t.Fatalf("StormDomain(0, 1) issued %d notices, want %d", notices, nodes)
	}
	if f.Notices() != nodes {
		t.Errorf("Notices() = %d, want %d", f.Notices(), nodes)
	}
	if f.UpCount() != nodes {
		t.Errorf("UpCount() = %d after replacement, want %d", f.UpCount(), nodes)
	}
	// Every node slot ran on spot continuously: old lease [0, 125),
	// replacement [125, 200] — 200 node-seconds each, exactly.
	report := f.Cost(0)
	want := nodes * 200.0 / 3600 * PricingAWS.SpotHourly
	if math.Abs(report.Dollars-want) > 1e-9 {
		t.Errorf("cost = %.12f, want %.12f (delta %.3g): revocation mid-interval double- or under-billed",
			report.Dollars, want, report.Dollars-want)
	}
	wantNorm := PricingAWS.SpotHourly / PricingAWS.OnDemandHourly
	if math.Abs(report.Normalized-wantNorm) > 1e-9 {
		t.Errorf("normalized = %v, want %v", report.Normalized, wantNorm)
	}
}

// TestStormEdgeCases: storms on stopped, unstarted, or spot-free fleets
// dissipate without notices.
func TestStormEdgeCases(t *testing.T) {
	s := sim.New(1)
	f, err := NewFleet(s, Config{Nodes: 2, Mode: ModeOnDemandOnly})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	if got := f.StormDomain(0, 0.5); got != 0 {
		t.Errorf("StormDomain before Start = %d, want 0", got)
	}
	if err := f.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if got := f.StormDomain(0, 0.5); got != 0 {
		t.Errorf("StormDomain on all-on-demand fleet = %d, want 0", got)
	}
	if got := f.StormDomain(0, 0); got != 0 {
		t.Errorf("StormDomain(0, 0) = %d, want 0", got)
	}
	f.Stop()
	if got := f.StormDomain(0, 0.5); got != 0 {
		t.Errorf("StormDomain after Stop = %d, want 0", got)
	}
}
