// Two-phase lease provisioning in the style of cloud-gpu-shopper:
// request → pending → ready → bind, with a provisioning lead time. A
// lease bills from ready until its consumer releases it, bound or not:
// the provider runs the instance either way.
package market

import (
	"errors"
	"fmt"

	"protean/internal/obs"
)

// LeaseState is a lease's position in the two-phase lifecycle.
type LeaseState int

const (
	// StatePending: requested, inventory held, instance provisioning.
	StatePending LeaseState = iota + 1
	// StateReady: provisioned and billing, waiting for the consumer's
	// Bind or Release.
	StateReady
	// StateBound: owned by the consumer.
	StateBound
	// StateReleased: returned cleanly by the consumer.
	StateReleased
)

// String implements fmt.Stringer.
func (s LeaseState) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateReady:
		return "ready"
	case StateBound:
		return "bound"
	case StateReleased:
		return "released"
	default:
		return fmt.Sprintf("LeaseState(%d)", int(s))
	}
}

// Lease is one VM lease in the marketplace ledger.
type Lease struct {
	// ID is 1-based and dense; the ledger keeps every lease ever issued
	// in ID order, which is also every deterministic iteration order.
	ID       int
	Provider int
	Kind     Kind
	Consumer string
	State    LeaseState

	// Requested, ReadyAt, BoundAt and EndedAt are lifecycle timestamps
	// (virtual seconds; 0 when the transition has not happened).
	Requested float64
	ReadyAt   float64
	BoundAt   float64
	EndedAt   float64

	accrued float64 // settled dollars
	since   float64 // open billing segment start
}

// billing reports whether the lease has an open billing segment:
// provisioned and not yet ended. Pending leases don't bill (the
// instance isn't up), and released ones settled at the end.
func (l *Lease) billing() bool {
	return l.State == StateReady || l.State == StateBound
}

// ErrNoCapacity is returned when a provider's spot inventory is
// exhausted.
var ErrNoCapacity = errors.New("market: no spot capacity")

// Request opens a two-phase acquisition: spot inventory is held
// immediately, the instance becomes ready after the provisioning lead
// time, and onReady runs (in root context) so the consumer can Bind.
// Requests at virtual time 0 provision synchronously (the
// bootstrap fleet predates the run clock).
func (m *Market) Request(consumer string, providerIdx int, kind Kind, onReady func(*Lease)) (*Lease, error) {
	if providerIdx < 0 || providerIdx >= len(m.providers) {
		return nil, fmt.Errorf("market: provider %d out of range", providerIdx)
	}
	if kind != KindOnDemand && kind != KindSpot {
		return nil, fmt.Errorf("market: unknown kind %d", int(kind))
	}
	p := m.providers[providerIdx]
	if kind == KindSpot {
		if p.free <= 0 {
			m.stats.Rejected++
			return nil, fmt.Errorf("%w: %s", ErrNoCapacity, p.cfg.Name)
		}
		p.free--
	}
	now := m.sim.Now()
	l := &Lease{
		ID:        len(m.leases) + 1,
		Provider:  providerIdx,
		Kind:      kind,
		Consumer:  consumer,
		State:     StatePending,
		Requested: now,
	}
	m.leases = append(m.leases, l)
	m.stats.Requests++
	if tr := m.sim.Tracer(); tr.Enabled() {
		ev := obs.At(now, obs.KindLeaseRequest)
		ev.Node = providerIdx
		ev.Batch = uint64(l.ID)
		ev.Detail = kind.String()
		ev.Model = consumer
		tr.Emit(ev)
	}
	if now <= 0 {
		m.ready(l, onReady)
		return l, nil
	}
	m.sim.MustAfter(ProvisionTime, func() { m.ready(l, onReady) })
	return l, nil
}

// ready moves a pending lease to the billing Ready state and hands it
// to the consumer.
func (m *Market) ready(l *Lease, onReady func(*Lease)) {
	if l.State != StatePending {
		return // released while provisioning
	}
	now := m.sim.Now()
	l.State = StateReady
	l.ReadyAt = now
	l.since = now
	if onReady != nil {
		onReady(l)
	}
}

// Bind takes ownership of a ready lease.
func (m *Market) Bind(l *Lease) error {
	if l.State != StateReady {
		return fmt.Errorf("market: bind lease %d in state %s", l.ID, l.State)
	}
	now := m.sim.Now()
	l.State = StateBound
	l.BoundAt = now
	m.stats.Binds++
	if tr := m.sim.Tracer(); tr.Enabled() {
		ev := obs.At(now, obs.KindLeaseBind)
		ev.Node = l.Provider
		ev.Batch = uint64(l.ID)
		ev.Detail = l.Kind.String()
		ev.Model = l.Consumer
		tr.Emit(ev)
	}
	return nil
}

// Release returns a lease cleanly, settling its final billing segment
// and returning spot inventory. Pending leases cancel without billing
// (the instance never came up).
func (m *Market) Release(l *Lease) {
	switch l.State {
	case StatePending:
		m.reclaim(l, StateReleased)
		m.stats.Releases++
	case StateReady, StateBound:
		m.settle(l, m.sim.Now())
		m.reclaim(l, StateReleased)
		m.stats.Releases++
	default:
		// Already released: nothing to do.
	}
}

// reclaim finalises a lease: terminal state, inventory returned.
func (m *Market) reclaim(l *Lease, terminal LeaseState) {
	l.State = terminal
	l.EndedAt = m.sim.Now()
	if l.Kind == KindSpot {
		m.providers[l.Provider].free++
	}
}

// SpendRate returns the current $/hour commitment across all leases
// with an open billing segment.
func (m *Market) SpendRate() float64 {
	rate := 0.0
	for _, l := range m.leases {
		if l.billing() {
			rate += m.rate(l)
		}
	}
	return rate
}

// LiveLeases counts the leases pending, ready or bound.
func (m *Market) LiveLeases() int {
	n := 0
	for _, l := range m.leases {
		if l.State == StatePending || l.billing() {
			n++
		}
	}
	return n
}
