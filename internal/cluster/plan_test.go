package cluster

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"protean/internal/chaos"
	"protean/internal/core"
	"protean/internal/market"
	"protean/internal/model"
	"protean/internal/obs"
	"protean/internal/pool"
	"protean/internal/queue"
	"protean/internal/sim"
	"protean/internal/trace"
	"protean/internal/vm"
)

// outcome is everything a batch run reports: its Result, the events the
// simulation executed, the freelist traffic and, when traced, the
// events it emitted.
type outcome struct {
	res    *Result
	events uint64
	pool   pool.Stats
	trace  []obs.Event
}

// TestEntryPointsReplayOneGateway: Run over a generated trace,
// RunStream over the same arrival stream and RunPlan over a plan built
// from it replay one gateway, so they give identical Results, Executed
// counts and pool stats, and a traced run gives the untraced run's
// outcome and the same events from every entry point, fewer than the
// requests it offered: no event is emitted per request. The cells cover
// PROTEAN, the Oracle (whose window view a streamed run lacks, so it
// skips RunStream), faults and a market-backed fleet.
func TestEntryPointsReplayOneGateway(t *testing.T) {
	strict := model.MustByName("ResNet 50")
	tc := trace.Config{
		Rate:     trace.Constant(900),
		Mix:      trace.Mix{StrictFrac: 0.5, Strict: strict, BEPool: model.OppositeClassPool(strict)},
		Duration: 16,
		Seed:     5,
	}
	reqs, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	st, err := trace.NewStream(tc)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := queue.Build(tc.Duration, st.Source())
	if err != nil {
		t.Fatal(err)
	}
	cells := []struct {
		name   string
		policy core.Factory
		chaos  chaos.Config
		market bool
		stream bool
	}{
		{"protean", core.NewProtean(core.ProteanConfig{}), chaos.Config{}, false, true},
		{"oracle", core.NewOracle(), chaos.Config{}, false, false},
		{"chaos", core.NewProtean(core.ProteanConfig{}), chaos.DefaultConfig().Scaled(2), false, true},
		{"market", core.NewProtean(core.ProteanConfig{}), chaos.Config{}, true, true},
	}
	for _, cell := range cells {
		run := func(entry string, traced bool) outcome {
			t.Helper()
			s := sim.New(9)
			var col *obs.Collector
			if traced {
				col = obs.NewCollector(cell.name)
				s.SetTracer(col)
			}
			var vmCfg *vm.Config
			if cell.market {
				mk, err := market.New(s, market.Config{}, vm.DefaultMarketCatalog())
				if err != nil {
					t.Fatal(err)
				}
				if err := mk.Start(); err != nil {
					t.Fatal(err)
				}
				vmCfg = &vm.Config{Market: mk, Procurement: market.CheapestSpot()}
			}
			c, err := New(s, Config{Nodes: 3, Policy: cell.policy, Chaos: cell.chaos, VM: vmCfg, Warmup: 2})
			if err != nil {
				t.Fatal(err)
			}
			var res *Result
			switch entry {
			case "Run":
				res, err = c.Run(reqs, tc.Duration)
			case "RunStream":
				st, serr := trace.NewStream(tc)
				if serr != nil {
					t.Fatal(serr)
				}
				res, err = c.RunStream(st, tc.Duration)
			case "RunPlan":
				res, err = c.RunPlan(plan)
			}
			if err != nil {
				t.Fatalf("%s %s (traced %v): %v", cell.name, entry, traced, err)
			}
			out := outcome{res: res, events: s.Executed(), pool: c.PoolStats()}
			if col != nil {
				out.trace = col.Trace().Events
			}
			return out
		}
		want := run("Run", false)
		if want.res.Availability.Offered != len(reqs) || want.res.Recorder.Requests() == 0 {
			t.Fatalf("%s: offered %d of %d requests, recorded %d", cell.name,
				want.res.Availability.Offered, len(reqs), want.res.Recorder.Requests())
		}
		entries := []string{"Run", "RunPlan"}
		if cell.stream {
			entries = append(entries, "RunStream")
		}
		var wantTrace []obs.Event
		for _, entry := range entries {
			for _, traced := range []bool{false, true} {
				got := run(entry, traced)
				if !reflect.DeepEqual(got.res, want.res) || got.events != want.events || got.pool != want.pool {
					t.Errorf("%s %s (traced %v): %d events, pool %+v, summary %+v; Run: %d events, pool %+v, summary %+v",
						cell.name, entry, traced, got.events, got.pool, got.res.Recorder.Summarize(),
						want.events, want.pool, want.res.Recorder.Summarize())
				}
				if !traced {
					continue
				}
				if offered := got.res.Availability.Offered; len(got.trace) >= offered {
					t.Errorf("%s %s: %d events for %d offered requests", cell.name, entry, len(got.trace), offered)
				}
				if wantTrace == nil {
					wantTrace = got.trace
				} else if !reflect.DeepEqual(got.trace, wantTrace) {
					t.Errorf("%s %s: the trace differs from traced Run's", cell.name, entry)
				}
			}
		}
	}
}

// TestRunPlanRejectsMismatchedPlans: a plan replays only over a
// positive horizon.
func TestRunPlanRejectsMismatchedPlans(t *testing.T) {
	reqs := genTrace(t, 100, 5, 0.5, "ResNet 50", nil, 3)
	plan, err := queue.Build(5, trace.SliceSource(reqs))
	if err != nil {
		t.Fatal(err)
	}
	plan.Horizon = 0
	c, err := New(sim.New(1), Config{Nodes: 1, Policy: core.NewProtean(core.ProteanConfig{})})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := c.RunPlan(plan); err == nil || res != nil {
		t.Errorf("zero horizon: got (%v, %v), want an error", res, err)
	}
}

// TestRunJoinsPlanner: with a second P, Run and RunStream plan on a
// producer goroutine, and it is gone once they return, from a run that
// ends and from one that fails (a fleet started twice) with blocks
// still to plan. The collector is off, so no finalizer ends a producer
// the run left behind.
func TestRunJoinsPlanner(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	strict := model.MustByName("ResNet 50")
	tc := trace.Config{
		Rate:     trace.Constant(3000),
		Mix:      trace.Mix{StrictFrac: 0.5, Strict: strict, BEPool: model.OppositeClassPool(strict)},
		Duration: 8,
		Seed:     5,
	}
	reqs, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	joined := func(what string) {
		t.Helper()
		for range 1000 {
			if runtime.NumGoroutine() <= base {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("%s: %d goroutines, %d before", what, runtime.NumGoroutine(), base)
	}
	s := sim.New(9)
	mk, err := market.New(s, market.Config{}, vm.DefaultMarketCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if err := mk.Start(); err != nil {
		t.Fatal(err)
	}
	c, err := New(s, Config{Nodes: 2, Policy: core.NewProtean(core.ProteanConfig{}),
		VM: &vm.Config{Market: mk, Procurement: market.CheapestSpot()}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(reqs, tc.Duration); err != nil {
		t.Fatal(err)
	}
	joined("Run")
	if _, err := c.Run(reqs, tc.Duration); err == nil {
		t.Fatal("a second Run started the fleet again")
	}
	joined("a failed Run")

	c, err = New(sim.New(9), Config{Nodes: 2, Policy: core.NewProtean(core.ProteanConfig{})})
	if err != nil {
		t.Fatal(err)
	}
	st, err := trace.NewStream(tc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunStream(st, tc.Duration); err != nil {
		t.Fatal(err)
	}
	joined("RunStream")
}
