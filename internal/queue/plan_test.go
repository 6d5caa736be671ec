package queue

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"protean/internal/model"
	"protean/internal/obs"
	"protean/internal/pool"
	"protean/internal/sim"
	"protean/internal/trace"
)

// gateway is what a gateway did over one arrival sequence: its sealed
// batches in seal order, the batches Flush sealed, its counts, and its
// trace events.
type gateway struct {
	sealed, flushed  []Batch
	offered, dropped int
	events           uint64
	shells           pool.Stats
	trace            []obs.Event
}

// pumpGateway is the reference gateway, the per-request pump clusters
// ran before plans: a Batcher on a simulation's own clock, fed one
// request per event by a self-re-arming timer that loops through
// sim.Timer.Continue while the next arrival is the next event, then run
// to the horizon and flushed. Arrivals at or after the horizon are not
// offered. It copies each sealed batch and releases it, so the batcher
// recycles its buffers.
func pumpGateway(t *testing.T, reqs []trace.Request, horizon float64) gateway {
	t.Helper()
	var g gateway
	s := sim.New(1)
	col := obs.NewCollector("pump")
	s.SetTracer(col)
	flushing := false
	var b *Batcher
	b, err := NewBatcher(s, DefaultWindow, func(x *Batch) {
		cp := *x
		cp.Arrivals, cp.Tenants = slices.Clone(x.Arrivals), slices.Clone(x.Tenants)
		if flushing {
			g.flushed = append(g.flushed, cp)
		} else {
			g.sealed = append(g.sealed, cp)
		}
		b.Release(x)
	})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for n < len(reqs) && reqs[n].Arrival < horizon {
		n++
	}
	if n > 0 {
		i := 0
		var pump *sim.Timer
		pump, err = s.At(reqs[0].Arrival, func() {
			for {
				g.offered++
				if err := b.Add(reqs[i]); err != nil {
					g.dropped++
				}
				if i++; i == n {
					return
				}
				more, err := pump.Continue(reqs[i].Arrival)
				if err != nil {
					t.Fatal(err)
				}
				if !more {
					return
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
	flushing = true
	b.Flush()
	g.events = s.Executed()
	g.shells = b.pbFree.Stats()
	g.trace = col.Trace().Events
	return g
}

// planGateway is the same gateway read off a planner's steps, replayed
// through r as a cluster does: each sealed batch takes a shell from r,
// and r releases it a few batches later. A released batch must still
// hold what it held when it was taken.
func planGateway(t *testing.T, p *Planner, r *Batcher) gateway {
	t.Helper()
	var g gateway
	var held []*Batch
	var copies []Batch
	release := func() {
		if b, want := held[0], copies[len(copies)-len(held)]; !slices.Equal(b.Arrivals, want.Arrivals) || !slices.Equal(b.Tenants, want.Tenants) {
			t.Fatalf("batch %d changed while a run held it", b.ID)
		}
		r.Release(held[0])
		held = held[1:]
	}
	for st := p.Next(); st != nil; st = p.Next() {
		g.trace = append(g.trace, st.Event())
		b := r.Replay(&st.Batch)
		cp := *b
		cp.Arrivals, cp.Tenants = slices.Clone(b.Arrivals), slices.Clone(b.Tenants)
		copies = append(copies, cp)
		if held = append(held, b); len(held) > 3 {
			release()
		}
		if st.Kind == StepSeal {
			g.sealed = append(g.sealed, cp)
		} else {
			g.flushed = append(g.flushed, cp)
		}
	}
	for len(held) > 0 {
		release()
	}
	tally := p.Tally()
	g.offered, g.dropped, g.events, g.shells = tally.Offered, tally.Dropped, tally.Events, tally.Shells
	return g
}

// replayer is a batcher a test replays planned batches through.
func replayer(t *testing.T) *Batcher {
	t.Helper()
	r, err := NewBatcher(sim.New(1), DefaultWindow, func(*Batch) { t.Fatal("a replaying batcher sealed a batch") })
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// randomArrivals draws a sorted arrival sequence over several models of
// both classes, with tenants, a few requests without a model, arrivals
// at exactly an earlier arrival plus the window (a tie with that
// arrival's batch deadline when it opened one) and at one instant, and
// arrivals at and past the horizon.
func randomArrivals(rng *rand.Rand, horizon float64) []trace.Request {
	const window = DefaultWindow
	models := []*model.Model{
		model.MustByName("ALBERT"),     // batch size 4: seals full
		model.MustByName("DistilBERT"), // batch size 4
		model.MustByName("ResNet 50"),  // batch size 128: seals on the window
	}
	n := rng.Intn(200)
	reqs := make([]trace.Request, 0, n+2)
	at := 0.0
	for i := range n {
		switch k := rng.Intn(10); {
		case k < 2 && i > 0:
			// a tie with an earlier arrival's deadline
			prev := reqs[rng.Intn(len(reqs))].Arrival + window
			at = max(at, prev)
		case k < 3:
			// another arrival at this instant
		default:
			at += rng.ExpFloat64() * window / 3
		}
		r := trace.Request{ID: uint64(i), Model: models[rng.Intn(len(models))], Strict: rng.Intn(2) == 0, Arrival: at}
		if rng.Intn(4) == 0 {
			r.Tenant = fmt.Sprintf("t%d", rng.Intn(3))
		}
		if rng.Intn(40) == 0 {
			r.Model = nil
		}
		reqs = append(reqs, r)
	}
	if len(reqs) > 0 && at <= horizon && rng.Intn(2) == 0 {
		last := reqs[len(reqs)-1]
		last.Arrival = horizon
		reqs = append(reqs, last, trace.Request{Model: last.Model, Arrival: horizon + 1})
	}
	return reqs
}

// TestPlannerMatchesPump drives the planner, built in one pass and
// pulled step by step, and the reference pump over seeded random
// arrival sequences. Batches (ID, model, class, arrivals, tenants, seal
// time), the flushed batches in Flush order, the counts, the event
// count, the shell traffic and the trace events must all match, and a
// pulled planner that reuses released buffers must not touch a batch a
// run still holds.
func TestPlannerMatchesPump(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		horizon := 0.5 + rng.Float64()*3
		reqs := randomArrivals(rng, horizon)
		if seed == 0 {
			reqs = nil
		}
		want := pumpGateway(t, reqs, horizon)
		plan, err := Build(horizon, trace.SliceSource(reqs))
		if err != nil {
			t.Fatalf("seed %d: Build: %v", seed, err)
		}
		r := replayer(t)
		lazy, err := NewPlanner(horizon, trace.SliceSource(reqs), r)
		if err != nil {
			t.Fatalf("seed %d: NewPlanner: %v", seed, err)
		}
		for name, got := range map[string]gateway{
			"built":  planGateway(t, plan.Replay(), replayer(t)),
			"pulled": planGateway(t, lazy, r),
		} {
			if err := sameGateway(got, want); err != nil {
				t.Fatalf("seed %d, %s plan: %v", seed, name, err)
			}
		}
	}
}

// sameGateway reports the first difference between two gateways.
func sameGateway(got, want gateway) error {
	if err := sameBatches("sealed", got.sealed, want.sealed); err != nil {
		return err
	}
	if err := sameBatches("flushed", got.flushed, want.flushed); err != nil {
		return err
	}
	switch {
	case got.offered != want.offered || got.dropped != want.dropped:
		return fmt.Errorf("offered %d, dropped %d; pump %d, %d", got.offered, got.dropped, want.offered, want.dropped)
	case got.events != want.events:
		return fmt.Errorf("%d events, pump %d", got.events, want.events)
	case got.shells != want.shells:
		return fmt.Errorf("shell traffic %+v, pump %+v", got.shells, want.shells)
	case !reflect.DeepEqual(got.trace, want.trace):
		return fmt.Errorf("trace of %d events differs from the pump's %d", len(got.trace), len(want.trace))
	}
	return nil
}

func sameBatches(what string, got, want []Batch) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d %s batches, pump %d", len(got), what, len(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		//lint:ignore floateq a planned seal time is the pump's to the bit
		if g.ID != w.ID || g.Model != w.Model || g.Strict != w.Strict || g.Sealed != w.Sealed ||
			!slices.Equal(g.Arrivals, w.Arrivals) || !slices.Equal(g.Tenants, w.Tenants) {
			return fmt.Errorf("%s batch %d: %+v, pump %+v", what, i, *g, *w)
		}
	}
	return nil
}

// TestPlannerRejectsBadInput: a horizon that would never end, an arrival
// off the clock and an out-of-order source are errors or panics, not a
// plan.
func TestPlannerRejectsBadInput(t *testing.T) {
	m := model.MustByName("ALBERT")
	one := func(at float64) func() *trace.Request {
		return trace.SliceSource([]trace.Request{{Model: m, Arrival: at}})
	}
	for _, h := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := Build(h, one(0)); err == nil {
			t.Errorf("horizon %v accepted", h)
		}
	}
	for _, at := range []float64{-1, -math.Inf(1), math.NaN()} {
		if _, err := Build(1, one(at)); err == nil {
			t.Errorf("first arrival %v accepted", at)
		}
	}
	if _, err := Build(1, nil); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := NewPlanner(1, one(0), nil); err == nil {
		t.Error("nil replaying batcher accepted")
	}
	reqs := []trace.Request{{Model: m, Arrival: 0.5}, {Model: m, Arrival: 0.25}}
	defer func() {
		if recover() == nil {
			t.Error("an arrival before the previous one did not panic")
		}
	}()
	_, _ = Build(1, trace.SliceSource(reqs))
}
