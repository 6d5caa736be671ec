package cluster

import (
	"fmt"
	"math"
	"testing"

	"protean/internal/chaos"
	"protean/internal/core"
	"protean/internal/market"
	"protean/internal/metrics"
	"protean/internal/model"
	"protean/internal/sim"
	"protean/internal/vm"
)

// levelCounts renders everything a count reader can read of a result:
// every field but the recorder, and the recorder's counts on it and on
// its class views. NaNs and -0.0 render by their bits.
func levelCounts(res *Result) string {
	r := *res
	rec := r.Recorder
	r.Recorder = nil
	var extra []any
	if r.Cost != nil {
		extra = append(extra, *r.Cost)
	}
	if r.Chaos != nil {
		extra = append(extra, *r.Chaos)
	}
	if r.Market != nil {
		extra = append(extra, *r.Market)
	}
	r.Cost, r.Chaos, r.Market = nil, nil, nil
	out := fmt.Sprintf("%+v %+v", r, extra)
	for _, v := range []*metrics.Recorder{rec, rec.Strict(), rec.BestEffort()} {
		out += fmt.Sprintf(" | %d samples, %d requests, compliance %x, goodput %x", v.Len(), v.Requests(),
			math.Float64bits(v.SLOCompliance()), math.Float64bits(metrics.Goodput(v, r.Duration)))
	}
	return out
}

// TestLevelsKeepResultCounts runs a PROTEAN cell, a chaos-on cell and a
// market-fleet cell with a warmup at every recorder level, and requires
// identical Result counts: a count-level run records no row, so what it
// counts must come out exactly as the rows it stands for. The sketch
// level is spelled both ways.
func TestLevelsKeepResultCounts(t *testing.T) {
	m := model.MustByName("ResNet 50")
	reqs := genTrace(t, 600, 20, 0.5, m.Name(), model.OppositeClassPool(m), 3)
	cells := []struct {
		name string
		cfg  func(t *testing.T, s *sim.Sim) Config
	}{
		{"PROTEAN", func(*testing.T, *sim.Sim) Config { return Config{} }},
		{"chaos", func(*testing.T, *sim.Sim) Config { return Config{Chaos: chaos.DefaultConfig().Scaled(2)} }},
		{"market", func(t *testing.T, s *sim.Sim) Config {
			mk, err := market.New(s, market.Config{}, vm.DefaultMarketCatalog())
			if err != nil {
				t.Fatalf("market.New: %v", err)
			}
			if err := mk.Start(); err != nil {
				t.Fatalf("market Start: %v", err)
			}
			return Config{VM: &vm.Config{Market: mk, Procurement: market.CheapestSpot()}}
		}},
	}
	levels := []struct {
		name string
		set  func(*Config)
	}{
		{"rows", func(*Config) {}},
		{"counts", func(c *Config) { c.Level = metrics.Counts }},
		{"sketches", func(c *Config) { c.Level = metrics.Sketches }},
		{"SketchQuantiles", func(c *Config) { c.SketchQuantiles = true }},
	}
	for _, cell := range cells {
		var want string
		for _, lv := range levels {
			s := sim.New(9)
			cfg := cell.cfg(t, s)
			cfg.Nodes, cfg.Policy, cfg.Warmup = 3, core.NewProtean(core.ProteanConfig{}), 4
			lv.set(&cfg)
			c, err := New(s, cfg)
			if err != nil {
				t.Fatalf("%s at %s: New: %v", cell.name, lv.name, err)
			}
			res, err := c.Run(reqs, 20)
			if err != nil {
				t.Fatalf("%s at %s: Run: %v", cell.name, lv.name, err)
			}
			got := levelCounts(res)
			if want == "" {
				want = got
				if res.Recorder.Strict().Len() == 0 || res.Recorder.Len() == len(reqs) {
					t.Fatalf("%s: %d of %d requests recorded, %d strict: the warmup cut nothing or no strict request ran",
						cell.name, res.Recorder.Len(), len(reqs), res.Recorder.Strict().Len())
				}
				continue
			}
			if got != want {
				t.Errorf("%s: counts at %s differ from rows:\n got  %s\n want %s", cell.name, lv.name, got, want)
			}
		}
	}
}

// TestNewRejectsConflictingLevels: SketchQuantiles spells the sketch
// level only, and a level must be one of the three.
func TestNewRejectsConflictingLevels(t *testing.T) {
	for _, cfg := range []Config{
		{Level: metrics.Counts, SketchQuantiles: true},
		{Level: metrics.Sketches + 1},
	} {
		cfg.Nodes, cfg.Policy = 1, core.NewProtean(core.ProteanConfig{})
		if _, err := New(sim.New(1), cfg); err == nil {
			t.Errorf("New accepted level %d with SketchQuantiles %v", cfg.Level, cfg.SketchQuantiles)
		}
	}
}
