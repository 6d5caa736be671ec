package queue

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

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
	// byArrivals and bySteps count a pulled planner's blocks that
	// reached the arrival and the step cap.
	byArrivals, bySteps int
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
	offered := 0
	for st := p.Next(); st != nil; st = p.Next() {
		if p.blk != nil && p.head == 1 {
			// The first step of a block.
			switch {
			case len(p.steps) >= blockSteps:
				g.bySteps++
			case p.tally.Offered-offered >= blockArrivals:
				g.byArrivals++
			}
			offered = p.tally.Offered
		}
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
		r := trace.Request{ID: uint64(i), Model: gatewayModels[rng.Intn(len(gatewayModels))], Strict: rng.Intn(2) == 0, Arrival: at}
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
// run still holds. The pulled planner runs at one P, filling its blocks
// inline, and at two, on a producer goroutine. Two long sequences hand
// over at least three blocks by each cap: a one-model trace at 9,000
// rps fills its blocks by arrivals, and a multi-model trace with
// tenants at 35 rps, whose batches mostly seal one member at their
// window deadline, by steps.
func TestPlannerMatchesPump(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		horizon := 0.5 + rng.Float64()*3
		reqs := randomArrivals(rng, horizon)
		if seed == 0 {
			reqs = nil
		}
		matchPump(t, fmt.Sprintf("seed %d", seed), reqs, horizon)
	}
	long := []struct {
		name                string
		reqs                []trace.Request
		horizon             float64
		byArrivals, bySteps int
	}{
		{"9000 rps, one model", steadyArrivals(rand.New(rand.NewSource(1)), 9000, 2, gatewayModels[2:], false), 2, 3, 0},
		{"35 rps, three models", steadyArrivals(rand.New(rand.NewSource(2)), 35, 120, gatewayModels, true), 120, 0, 3},
	}
	for _, l := range long {
		for _, got := range matchPump(t, l.name, l.reqs, l.horizon) {
			if got.byArrivals < l.byArrivals || got.bySteps < l.bySteps {
				t.Errorf("%s: %d blocks reached the arrival cap and %d the step cap; want at least %d and %d",
					l.name, got.byArrivals, got.bySteps, l.byArrivals, l.bySteps)
			}
		}
	}
}

// matchPump holds a built plan and a pulled planner, at one P and at
// two, to the pump over reqs and returns the pulled planners' gateways.
func matchPump(t *testing.T, name string, reqs []trace.Request, horizon float64) []gateway {
	t.Helper()
	want := pumpGateway(t, reqs, horizon)
	plan, err := Build(horizon, trace.SliceSource(reqs))
	if err != nil {
		t.Fatalf("%s: Build: %v", name, err)
	}
	if err := sameGateway(planGateway(t, plan.Replay(), replayer(t)), want); err != nil {
		t.Fatalf("%s, built plan: %v", name, err)
	}
	var pulled []gateway
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		r := replayer(t)
		p, err := NewPlanner(horizon, trace.SliceSource(reqs), r)
		if err != nil {
			t.Fatalf("%s: NewPlanner: %v", name, err)
		}
		got := planGateway(t, p, r)
		p.Stop()
		runtime.GOMAXPROCS(prev)
		if err := sameGateway(got, want); err != nil {
			t.Fatalf("%s, planner pulled at %d P: %v", name, procs, err)
		}
		pulled = append(pulled, got)
	}
	return pulled
}

// gatewayModels are the models the random arrival sequences draw from.
var gatewayModels = []*model.Model{
	model.MustByName("ALBERT"),     // batch size 4: seals full
	model.MustByName("DistilBERT"), // batch size 4
	model.MustByName("ResNet 50"),  // batch size 128: seals on the window
}

// steadyArrivals draws a Poisson arrival sequence at rps over [0,
// horizon), its requests spread over models and both classes, a
// quarter of them with one of three tenants when tenants is set.
func steadyArrivals(rng *rand.Rand, rps, horizon float64, models []*model.Model, tenants bool) []trace.Request {
	var reqs []trace.Request
	for at := rng.ExpFloat64() / rps; at < horizon; at += rng.ExpFloat64() / rps {
		r := trace.Request{ID: uint64(len(reqs)), Model: models[rng.Intn(len(models))], Strict: rng.Intn(2) == 0, Arrival: at}
		if tenants && rng.Intn(4) == 0 {
			r.Tenant = fmt.Sprintf("t%d", rng.Intn(3))
		}
		reqs = append(reqs, r)
	}
	return reqs
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

// waitGoroutines waits, collecting garbage so finalizers run, until at
// most want goroutines are left; goroutines that have returned leave
// the count a little later.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for range 1000 {
		runtime.GC()
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%d goroutines, want at most %d", runtime.NumGoroutine(), want)
}

// TestPlannerJoinsOnAbandon: a replay that fails after some steps stops
// its planner, as a cluster's replay does on every return path, and
// the producer goroutine is gone; so is the producer of a planner
// dropped after one Next without Stop, and one stopped during its first
// fill fills no other block.
func TestPlannerJoinsOnAbandon(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const horizon = 10
	reqs := steadyArrivals(rand.New(rand.NewSource(1)), 9000, horizon, gatewayModels[2:], false)
	base := runtime.NumGoroutine()

	r := replayer(t)
	p, err := NewPlanner(horizon, trace.SliceSource(reqs), r)
	if err != nil {
		t.Fatal(err)
	}
	blocks := 0
	for blocks < 3 {
		st := p.Next()
		if st == nil {
			t.Fatal("the plan ended within three blocks")
		}
		if p.head == 1 {
			blocks++
		}
		r.Release(r.Replay(&st.Batch))
	}
	p.Stop()
	waitGoroutines(t, base)
	if st := p.Next(); st != nil {
		t.Errorf("Next after Stop returned batch %d", st.Batch.ID)
	}
	p.Stop()

	func() {
		p, err := NewPlanner(horizon, trace.SliceSource(reqs), replayer(t))
		if err != nil {
			t.Fatal(err)
		}
		if p.Next() == nil {
			t.Fatal("no step")
		}
	}()
	waitGoroutines(t, base)

	// Stopped during its first fill, with the other blocks still free, a
	// producer finishes that fill and no other: the source is read for
	// the first arrival and one block's.
	for range 20 {
		read := 0
		inFill, release := make(chan struct{}), make(chan struct{})
		next := trace.SliceSource(reqs)
		p, err := NewPlanner(horizon, func() *trace.Request {
			if read++; read == 2 {
				close(inFill)
				<-release
			}
			return next()
		}, replayer(t))
		if err != nil {
			t.Fatal(err)
		}
		<-inFill
		a, stopped := p.ahead, make(chan struct{})
		go func() { p.Stop(); close(stopped) }()
		<-a.stop
		close(release)
		<-stopped
		if read != blockArrivals+1 {
			t.Fatalf("Stop returned after %d arrivals were read, want %d", read, blockArrivals+1)
		}
	}
	waitGoroutines(t, base)
}

// TestPulledPlannerPanicsOnCaller: a producer's panic, an out-of-order
// source's or the source's own, reaches the goroutine that calls Next
// with its message, at one P and at two, stops the planner, and leaves
// no producer behind.
func TestPulledPlannerPanicsOnCaller(t *testing.T) {
	m := model.MustByName("ALBERT")
	outOfOrder := func() func() *trace.Request {
		return trace.SliceSource([]trace.Request{{Model: m, Arrival: 0.5}, {Model: m, Arrival: 0.25}})
	}
	failing := func() func() *trace.Request {
		n := 0
		return func() *trace.Request {
			if n++; n > 2 {
				panic("source failed")
			}
			return &trace.Request{Model: m, Arrival: float64(n)}
		}
	}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		base := runtime.NumGoroutine()
		for _, c := range []struct {
			next func() *trace.Request
			want string
		}{
			{outOfOrder(), "queue: arrival at 0.25 after one at 0.5"},
			{failing(), "source failed"},
		} {
			p, err := NewPlanner(10, c.next, replayer(t))
			if err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if got := recover(); got != c.want {
						t.Errorf("%d P: Next panicked with %v, want %q", procs, got, c.want)
					}
				}()
				for p.Next() != nil {
				}
			}()
			if st := p.Next(); st != nil {
				t.Errorf("%d P: Next after the panic returned batch %d", procs, st.Batch.ID)
			}
			p.Stop()
		}
		waitGoroutines(t, base)
		runtime.GOMAXPROCS(prev)
	}
}

// FuzzPlannerMatchesBuild holds a pulled planner, at one P and at two,
// to Build step for step: kind, ID, model, class, seal time, arrivals
// and tenants, then the Tally. The n arrivals come at about rate per
// second; with ties > 0, about ties/8 of them land on an earlier
// arrival's window deadline or on the arrival before, and the horizon
// on a window deadline, with arrivals at and past it.
func FuzzPlannerMatchesBuild(f *testing.F) {
	f.Add(int64(1), uint16(300), 50.0, uint8(0))
	f.Add(int64(2), uint16(20000), 9000.0, uint8(1))
	f.Add(int64(3), uint16(5000), 35.0, uint8(3))
	f.Add(int64(4), uint16(2000), 400.0, uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, rate float64, ties uint8) {
		if !(rate >= 0.1 && rate <= 1e5) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		reqs, horizon := tiedArrivals(rng, int(n), rate, int(ties%9))
		plan, err := Build(horizon, trace.SliceSource(reqs))
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2} {
			prev := runtime.GOMAXPROCS(procs)
			r := replayer(t)
			p, err := NewPlanner(horizon, trace.SliceSource(reqs), r)
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			for st := p.Next(); st != nil; st = p.Next() {
				if i == len(plan.Steps) {
					t.Fatalf("%d P: step %d past Build's %d", procs, i, len(plan.Steps))
				}
				w := &plan.Steps[i]
				g, b := &st.Batch, &w.Batch
				if st.Kind != w.Kind || g.ID != b.ID || g.Model != b.Model || g.Strict != b.Strict ||
					math.Float64bits(g.Sealed) != math.Float64bits(b.Sealed) ||
					!slices.Equal(g.Arrivals, b.Arrivals) || !slices.Equal(g.Tenants, b.Tenants) {
					t.Fatalf("%d P: step %d is %v %+v, Build's %v %+v", procs, i, st.Kind, *g, w.Kind, *b)
				}
				r.Release(r.Replay(g))
				i++
			}
			p.Stop()
			runtime.GOMAXPROCS(prev)
			if i != len(plan.Steps) || p.Tally() != plan.Tally {
				t.Fatalf("%d P: %d steps, tally %+v; Build %d, %+v", procs, i, p.Tally(), len(plan.Steps), plan.Tally)
			}
		}
	})
}

// tiedArrivals draws n sorted arrivals at about rate per second over
// the gateway models, with tenants; ties of every eight land on a tie,
// and so does the horizon when ties > 0. See FuzzPlannerMatchesBuild.
func tiedArrivals(rng *rand.Rand, n int, rate float64, ties int) ([]trace.Request, float64) {
	reqs := make([]trace.Request, 0, n+2)
	at := 0.0
	for i := range n {
		switch k := rng.Intn(16); {
		case k < ties && i > 0:
			// a window deadline of an earlier arrival
			at = max(at, reqs[rng.Intn(len(reqs))].Arrival+DefaultWindow)
		case k < 2*ties:
			// the previous arrival's instant
		default:
			at += rng.ExpFloat64() / rate
		}
		r := trace.Request{ID: uint64(i), Model: gatewayModels[rng.Intn(len(gatewayModels))], Strict: rng.Intn(2) == 0, Arrival: at}
		if rng.Intn(4) == 0 {
			r.Tenant = fmt.Sprintf("t%d", rng.Intn(3))
		}
		reqs = append(reqs, r)
	}
	horizon := at + DefaultWindow
	if ties > 0 && len(reqs) > 0 {
		// a deadline in the last tenth, and arrivals at and past it
		horizon = reqs[len(reqs)-1-rng.Intn(len(reqs)/10+1)].Arrival + DefaultWindow
		for _, a := range []float64{horizon, horizon + 1} {
			if a >= at {
				at = a
				reqs = append(reqs, trace.Request{Model: gatewayModels[0], Arrival: a})
			}
		}
	}
	return reqs, horizon
}

// BenchmarkPlannerPull measures the gateway per arrival of the
// vision-gateway trace (9,000 rps for 60 s, ResNet 50 strict and its
// opposite-class best-effort pool): pulled through a replaying batcher
// that releases each batch at once, and built into a Plan.
func BenchmarkPlannerPull(b *testing.B) {
	strict := model.MustByName("ResNet 50")
	reqs, err := trace.Generate(trace.Config{
		Rate:     trace.Constant(9000),
		Mix:      trace.Mix{StrictFrac: 0.5, Strict: strict, BEPool: model.OppositeClassPool(strict)},
		Duration: 60,
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	perArrival := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/arrival")
	}
	b.Run("pull", func(b *testing.B) {
		r, err := NewBatcher(sim.New(1), DefaultWindow, func(*Batch) { b.Fatal("a replaying batcher sealed a batch") })
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for range b.N {
			p, err := NewPlanner(60, trace.SliceSource(reqs), r)
			if err != nil {
				b.Fatal(err)
			}
			for st := p.Next(); st != nil; st = p.Next() {
				r.Release(r.Replay(&st.Batch))
			}
			p.Stop()
		}
		perArrival(b)
	})
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := Build(60, trace.SliceSource(reqs)); err != nil {
				b.Fatal(err)
			}
		}
		perArrival(b)
	})
}
