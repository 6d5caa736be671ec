package market

import (
	"errors"
	"math"
	"testing"

	"protean/internal/sim"
)

func TestTwoPhaseLifecycle(t *testing.T) {
	s := sim.New(1)
	m := newTestMarket(t, s, Config{})
	var l *Lease
	s.MustAfter(10, func() {
		var err error
		l, err = m.Request("c", 0, KindSpot, func(lz *Lease) {
			if lz.State != StateReady {
				t.Errorf("onReady state = %s, want ready", lz.State)
			}
			if err := m.Bind(lz); err != nil {
				t.Errorf("Bind: %v", err)
			}
		})
		if err != nil {
			t.Errorf("Request: %v", err)
		}
		if l.State != StatePending {
			t.Errorf("state after Request = %s, want pending", l.State)
		}
		if m.providers[0].free != 3 {
			t.Errorf("spot inventory = %d, want 3 (held while pending)", m.providers[0].free)
		}
	})
	if err := s.RunUntil(100); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if l.State != StateBound {
		t.Fatalf("state = %s, want bound", l.State)
	}
	if l.Requested != 10 || l.ReadyAt != 35 || l.BoundAt != 35 {
		t.Errorf("timestamps = (%v, %v, %v), want (10, 35, 35)", l.Requested, l.ReadyAt, l.BoundAt)
	}
	m.Release(l)
	if l.State != StateReleased {
		t.Errorf("state after Release = %s", l.State)
	}
	if m.providers[0].free != 4 {
		t.Errorf("spot inventory = %d after release, want 4", m.providers[0].free)
	}
	st := m.Summary().Stats
	if st.Requests != 1 || st.Binds != 1 || st.Releases != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestUnboundReadyLeaseHoldsInventoryAndBillsUntilRelease(t *testing.T) {
	s := sim.New(1)
	m := newTestMarket(t, s, Config{})
	var l *Lease
	s.MustAfter(10, func() {
		var err error
		l, err = m.Request("c", 0, KindSpot, nil) // consumer never binds
		if err != nil {
			t.Errorf("Request: %v", err)
		}
	})
	s.MustAfter(3000, func() { m.Release(l) })
	if err := s.RunUntil(2900); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	// Long after provisioning the lease is still ready, holding its spot
	// instance and billing.
	if l.State != StateReady {
		t.Fatalf("state = %s, want ready", l.State)
	}
	if m.providers[0].free != 3 {
		t.Errorf("spot inventory = %d, want 3 (held while ready)", m.providers[0].free)
	}
	if m.LiveLeases() != 1 || m.SpendRate() <= 0 {
		t.Errorf("live leases = %d, spend rate = %v, want 1 billing lease", m.LiveLeases(), m.SpendRate())
	}
	billed := m.TotalDollars()
	if err := s.RunUntil(3600); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if l.State != StateReleased || l.EndedAt != 3000 {
		t.Fatalf("state = %s ended at %v, want released at 3000", l.State, l.EndedAt)
	}
	if m.providers[0].free != 4 {
		t.Errorf("spot inventory = %d after release, want 4", m.providers[0].free)
	}
	// Billed on up to the release and nothing after it.
	if l.accrued <= billed || math.Abs(m.TotalDollars()-l.accrued) > 1e-12 {
		t.Errorf("lease dollars = %v (%v at t=2900), market total = %v, want equal and growing", l.accrued, billed, m.TotalDollars())
	}
	st := m.Summary().Stats
	if st.Requests != 1 || st.Binds != 0 || st.Releases != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSpotInventoryExhaustion(t *testing.T) {
	s := sim.New(1)
	m := newTestMarket(t, s, Config{})
	var held []*Lease
	for i := 0; i < 2; i++ {
		l, err := m.Request("c", 2, KindSpot, func(lz *Lease) { _ = m.Bind(lz) })
		if err != nil {
			t.Fatalf("Request %d: %v", i, err)
		}
		held = append(held, l)
	}
	if _, err := m.Request("c", 2, KindSpot, nil); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("third spot request: err = %v, want ErrNoCapacity", err)
	}
	if st := m.Summary().Stats; st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
	// On-demand supply is unbounded even when spot is sold out.
	if _, err := m.Request("c", 2, KindOnDemand, func(lz *Lease) { _ = m.Bind(lz) }); err != nil {
		t.Fatalf("on-demand request: %v", err)
	}
	m.Release(held[0])
	if _, err := m.Request("c", 2, KindSpot, nil); err != nil {
		t.Fatalf("spot request after release: %v", err)
	}
}

func TestReleaseWhilePendingCancelsUnbilled(t *testing.T) {
	s := sim.New(1)
	m := newTestMarket(t, s, Config{})
	var l *Lease
	bound := false
	s.MustAfter(10, func() {
		var err error
		l, err = m.Request("c", 0, KindSpot, func(*Lease) { bound = true })
		if err != nil {
			t.Errorf("Request: %v", err)
		}
	})
	s.MustAfter(20, func() { m.Release(l) }) // cancel mid-provision
	if err := s.RunUntil(300); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if bound {
		t.Error("onReady ran for a cancelled lease")
	}
	if l.State != StateReleased || l.accrued != 0 {
		t.Errorf("cancelled lease: state %s, dollars %v", l.State, l.accrued)
	}
	if m.providers[0].free != 4 {
		t.Errorf("inventory = %d, want 4", m.providers[0].free)
	}
}

func TestTimeZeroRequestsProvisionSynchronously(t *testing.T) {
	s := sim.New(1)
	m := newTestMarket(t, s, Config{})
	ready := false
	l, err := m.Request("c", 0, KindSpot, func(lz *Lease) {
		ready = true
		_ = m.Bind(lz)
	})
	if err != nil {
		t.Fatalf("Request: %v", err)
	}
	if !ready || l.State != StateBound {
		t.Fatalf("t=0 request not synchronous: ready=%v state=%s", ready, l.State)
	}
}
