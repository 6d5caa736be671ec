package cluster

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"protean/internal/chaos"
	"protean/internal/core"
	"protean/internal/market"
	"protean/internal/metrics"
	"protean/internal/model"
	"protean/internal/sim"
	"protean/internal/trace"
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

// levelCell is one cell the level tests run at every recorder level.
type levelCell struct {
	name string
	cfg  func(t *testing.T, s *sim.Sim) Config
}

// levelCells are a PROTEAN cell, a chaos-on cell and a market-fleet
// cell.
var levelCells = []levelCell{
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

// levelTrace is the trace every level test runs: 20 s of mixed ResNet
// 50 strict and best-effort requests.
func levelTrace(t *testing.T) []trace.Request {
	m := model.MustByName("ResNet 50")
	return genTrace(t, 600, 20, 0.5, m.Name(), model.OppositeClassPool(m), 3)
}

// runLevelCell runs cell on reqs with a warmup at the recorder level
// set picks.
func runLevelCell(t *testing.T, cell levelCell, reqs []trace.Request, set func(*Config)) *Result {
	t.Helper()
	s := sim.New(9)
	cfg := cell.cfg(t, s)
	cfg.Nodes, cfg.Policy, cfg.Warmup = 3, core.NewProtean(core.ProteanConfig{}), 4
	set(&cfg)
	c, err := New(s, cfg)
	if err != nil {
		t.Fatalf("%s: New: %v", cell.name, err)
	}
	res, err := c.Run(reqs, 20)
	if err != nil {
		t.Fatalf("%s: Run: %v", cell.name, err)
	}
	return res
}

// TestLevelsKeepResultCounts runs each level cell at every recorder
// level and requires identical Result counts: a count-level run records
// no row, so what it counts must come out exactly as the rows it stands
// for. The sketch level is spelled both ways.
func TestLevelsKeepResultCounts(t *testing.T) {
	reqs := levelTrace(t)
	levels := []struct {
		name string
		set  func(*Config)
	}{
		{"rows", func(*Config) {}},
		{"counts", func(c *Config) { c.Level = metrics.Counts }},
		{"sketches", func(c *Config) { c.Level = metrics.Sketches }},
		{"SketchQuantiles", func(c *Config) { c.SketchQuantiles = true }},
	}
	for _, cell := range levelCells {
		var want string
		for _, lv := range levels {
			res := runLevelCell(t, cell, reqs, lv.set)
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

// TestSketchLevelKeepsLatencies requires a sketch-level run's class
// sketches to equal, bucket for bucket, the sketches of the rows-level
// run's latencies, and their P1, P50, P99 and P100 to match bit for
// bit, whole and per class: a sketch-level completion, which builds no
// latency breakdown, records every latency the rows do.
func TestSketchLevelKeepsLatencies(t *testing.T) {
	reqs := levelTrace(t)
	for _, cell := range levelCells {
		rows := runLevelCell(t, cell, reqs, func(*Config) {})
		sketched := runLevelCell(t, cell, reqs, func(c *Config) { c.Level = metrics.Sketches })
		var all metrics.Sketch
		for _, v := range []struct {
			name          string
			rows, sketchd *metrics.Recorder
		}{
			{"strict", rows.Recorder.Strict(), sketched.Recorder.Strict()},
			{"best effort", rows.Recorder.BestEffort(), sketched.Recorder.BestEffort()},
		} {
			var want metrics.Sketch
			for _, lat := range v.rows.Latencies() {
				want.Add(lat, 1)
			}
			all.Merge(&want)
			if got := v.sketchd.Sketch(); !reflect.DeepEqual(*got, want) {
				t.Errorf("%s %s: the sketch-level sketch differs from the rows' latencies", cell.name, v.name)
			}
			checkSketchPercentiles(t, cell.name+" "+v.name, v.sketchd, &want)
		}
		checkSketchPercentiles(t, cell.name+" all", sketched.Recorder, &all)
	}
}

// checkSketchPercentiles requires rec's P1, P50, P99 and P100 to equal
// want's quantiles bit for bit.
func checkSketchPercentiles(t *testing.T, what string, rec *metrics.Recorder, want *metrics.Sketch) {
	t.Helper()
	for _, p := range []float64{1, 50, 99, 100} {
		if got, w := rec.Percentile(p), want.Quantile(p); math.Float64bits(got) != math.Float64bits(w) {
			t.Errorf("%s: P%v = %v at the sketch level, %v from the rows", what, p, got, w)
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
