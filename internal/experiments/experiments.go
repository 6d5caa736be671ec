// Package experiments reproduces every table and figure of the paper's
// evaluation (§2.2 and §6). Each experiment is a named entry in the
// Registry; cmd/protean-bench runs them and renders text tables, and
// bench_test.go exposes one testing.B benchmark per entry.
//
// Load calibration: the paper drives a real 8×A100 testbed whose
// per-batch cost includes host-side overheads our simulator omits, so
// the absolute request rates that saturate it differ from ours. Every
// experiment therefore runs at the rate that puts the cluster at the
// same *operating point* (relative to the whole-GPU saturation knee) as
// the paper's setup at its published rates. See EXPERIMENTS.md.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"protean/internal/autoscale"
	"protean/internal/chaos"
	"protean/internal/cluster"
	"protean/internal/core"
	"protean/internal/gpu"
	"protean/internal/market"
	"protean/internal/metrics"
	"protean/internal/model"
	"protean/internal/obs"
	"protean/internal/queue"
	"protean/internal/sim"
	"protean/internal/trace"
	"protean/internal/vm"
)

// Calibrated operating points (see the package comment).
const (
	// VisionMeanRPS is the Wiki-trace mean for vision experiments
	// (paper: 5000 rps at the testbed's knee).
	VisionMeanRPS = 9000
	// TwitterPeakRPS matches the Twitter trace's peak to the Wiki mean,
	// as §5 does.
	TwitterPeakRPS = 9000
	// LanguageMeanRPS is the LLM experiment rate (paper: 128 rps).
	LanguageMeanRPS = 192
	// GPUletMeanRPS is the strategic-MPS comparison rate: just below
	// GPUlet's saturation knee, where SM capping still works (§6.2).
	GPUletMeanRPS = 7500
	// GenerativeMeanRPS is the GPT experiment rate: the paper's own
	// 128 rps, uncalibrated — the GPT models' higher per-batch cost
	// already places the cluster at the same relative operating point.
	GenerativeMeanRPS = 128
	// AllBEMeanRPS is the 100% best-effort (Table 5) rate: the all-HI
	// model mix is heavier than the 50/50 mixes, so the equivalent
	// operating point sits lower.
	AllBEMeanRPS = 4800
)

// Params tunes experiment execution.
type Params struct {
	// Nodes is the worker count (default 8, as in the paper).
	Nodes int
	// Duration is the trace length in seconds (default 60).
	Duration float64
	// Warmup excludes the container ramp-up from metrics (default 15).
	Warmup float64
	// Seed drives trace generation and simulation (default 1).
	Seed int64
	// Quick shrinks durations and model sets for benchmarks.
	Quick bool
	// Parallel is the worker count RunScenarios fans scenarios out
	// across: 0 uses GOMAXPROCS, 1 runs sequentially, N uses N workers.
	// Results are merged by scenario index, so reports are byte-identical
	// at every setting.
	Parallel int
	// Shards does nothing: a scenario's lanes always run on one
	// goroutine. It stays only because the perfbench module still sets
	// it; ROADMAP item 11, the benchmark re-baseline, deletes it.
	Shards int
	// Trace, when non-nil, collects lifecycle events from every
	// scenario run. Collectors are registered in scenario order before
	// any run starts, so the merged trace is byte-identical at every
	// Parallel setting.
	Trace *obs.TraceSet
	// Chaos is the default fault-injection config for every scenario
	// (zero value: disabled — runs are byte-identical to a build
	// without the chaos subsystem). Scenario.Chaos overrides it.
	Chaos chaos.Config
}

// tracer registers a collector for a one-off (non-batch) scenario run;
// nil when tracing is off.
func (p Params) tracer(label string) obs.Tracer {
	if p.Trace == nil {
		return nil
	}
	return p.Trace.NewCollector(label)
}

func (p Params) withDefaults() Params {
	if p.Nodes <= 0 {
		p.Nodes = 8
	}
	if p.Duration <= 0 {
		p.Duration = 60
		if p.Quick {
			p.Duration = 30
		}
	}
	if p.Warmup <= 0 {
		p.Warmup = 15
		if p.Warmup >= p.Duration {
			p.Warmup = p.Duration / 3
		}
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Validate rejects parameters whose metric window is empty once the
// defaults are applied: a warmup at or past the trace's end leaves no
// sample to report.
func (p Params) Validate() error {
	d := p.withDefaults()
	if d.Warmup >= d.Duration {
		return fmt.Errorf("experiments: warmup %gs is not below the duration %gs", d.Warmup, d.Duration)
	}
	return nil
}

// visionModels returns the strict-model sweep for vision experiments.
func (p Params) visionModels() []*model.Model {
	if p.Quick {
		return []*model.Model{
			model.MustByName("ShuffleNet V2"),
			model.MustByName("ResNet 50"),
			model.MustByName("VGG 19"),
		}
	}
	return model.Vision()
}

// languageModels returns the strict-model sweep for VHI experiments.
func (p Params) languageModels() []*model.Model {
	if p.Quick {
		return []*model.Model{
			model.MustByName("DistilBERT"),
			model.MustByName("ALBERT"),
		}
	}
	return model.Language()
}

// NamedFactory pairs a scheme label with its policy factory.
type NamedFactory struct {
	Name    string
	Factory core.Factory
}

// PrimarySchemes are the four schemes of the primary evaluation
// (Figures 5–11): PROTEAN vs the state-of-the-art baselines.
func PrimarySchemes() []NamedFactory {
	return []NamedFactory{
		{Name: "Molecule (beta)", Factory: core.NewMoleculeBeta()},
		{Name: "Naive Slicing", Factory: core.NewNaiveSlicing(nil)},
		{Name: "INFless/Llama", Factory: core.NewINFlessLlama()},
		{Name: "PROTEAN", Factory: core.NewProtean(core.ProteanConfig{})},
	}
}

// Scenario describes one cluster run.
type Scenario struct {
	// Label names the scenario in batch error messages
	// (e.g. "VGG 19/PROTEAN").
	Label string
	// Strict is the strict-request model.
	Strict *model.Model
	// BEPool is the rotating best-effort pool (nil derives the
	// opposite-class pool of §5).
	BEPool []*model.Model
	// StrictFrac is the strict fraction (default 0.5).
	StrictFrac float64
	// Rate is the arrival-rate profile (nil: constant VisionMeanRPS).
	Rate trace.RateFn
	// SLOMultiplier overrides the default 3× target.
	SLOMultiplier float64
	// Policy is the scheme under test.
	Policy core.Factory
	// VM optionally attaches the spot/on-demand fleet. The config is
	// copied before the run, so one template may be shared.
	VM *vm.Config
	// RotatePeriod overrides the ~20 s BE model rotation.
	RotatePeriod float64
	// Arch selects the GPU generation (nil: A100-40GB).
	Arch *gpu.Arch
	// Chaos overrides Params.Chaos for this scenario (nil: inherit).
	// The config is copied before the run, so one value may be shared.
	Chaos *chaos.Config
	// NoPrewarm skips container pre-warming, so the run pays real cold
	// starts (the chaos sweep uses this to exercise cold-start faults).
	NoPrewarm bool
	// Market attaches the multi-provider GPU marketplace: the fleet
	// procures through the catalog's spot-price processes instead of
	// the fixed Table 3 tariff, so VM must leave the tariff's Mode,
	// Pricing and Availability unset. nil keeps the tariff.
	Market *MarketSpec
	// Trace, when non-nil, is replayed instead of a trace generated from
	// Rate and the model mix; Strict and BEPool then only name the
	// pre-warmed models. Runs only read it, so scenarios may share one.
	// The harnesses share generated arrivals as a plan: the scenarios of
	// one workload, stamped out by schemeRow or shareTrace, replay the
	// gateway's batches that RunScenarios plans once per batch.
	Trace []trace.Request
	// Scaler tunes container autoscaling (zero value: delayed
	// termination, §4.2).
	Scaler autoscale.Config

	// shared, when non-nil, is the trace group whose plan this scenario
	// replays in a RunScenarios batch (nil: it plans its own).
	shared *arrivals
}

// MarketSpec configures a scenario's marketplace attachment.
type MarketSpec struct {
	// Catalog is the provider catalog.
	Catalog []market.ProviderConfig
	// Policy builds the procurement policy — a factory, so concurrent
	// runs never share stateful policies.
	Policy func() market.Policy
}

// RunScenario executes one cluster run of the scenario: it replays
// sc.Trace, or else plans the gateway's batches over the scenario's
// arrival stream and replays the plan. tr, when non-nil, receives the
// run's lifecycle events. p is used as given: an entry point resolves
// its defaults once (the harnesses call withDefaults, and
// protean.Platform.Run fills every field it needs itself, so its zero
// warmup stays zero). A scenario run on its own is a trace group of
// one; only a RunScenarios batch shares a plan between scenarios.
func RunScenario(p Params, sc Scenario, tr obs.Tracer) (*cluster.Result, error) {
	sc.shared = nil
	return runScenario(p, sc, tr, metrics.Rows)
}

// runScenario is RunScenario for a member of a batch whose trace groups
// RunScenarios has armed, recording at level keep: a grouped scenario
// takes its group's plan, building it if it is the first member to ask,
// and releases the group when its run ends.
func runScenario(p Params, sc Scenario, tr obs.Tracer, keep metrics.Level) (*cluster.Result, error) {
	if sc.Trace == nil && sc.shared != nil {
		defer sc.shared.release()
	}
	tc, _, c, err := buildScenario(p, sc, tr, keep)
	if err != nil {
		return nil, err
	}
	if sc.Trace != nil {
		return c.Run(sc.Trace, p.Duration)
	}
	var plan *queue.Plan
	if sc.shared != nil {
		plan, err = sc.shared.get(tc)
	} else {
		plan, err = planTrace(tc)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: plan trace: %w", err)
	}
	return c.RunPlan(plan)
}

// planTrace plans the gateway's batches over the arrivals tc generates,
// pulled from trace.NewStream, so no request is materialised.
func planTrace(tc trace.Config) (*queue.Plan, error) {
	st, err := trace.NewStream(tc)
	if err != nil {
		return nil, err
	}
	return queue.Build(tc.Duration, st.Source())
}

// traceConfig is the trace a scenario generates when it carries none:
// Rate (default: constant VisionMeanRPS) over the strict/BE mix, whose
// BE pool defaults to the strict model's opposite class (§5) and whose
// strict fraction defaults to 0.5 when there is a strict model.
func traceConfig(p Params, sc Scenario) trace.Config {
	pool := sc.BEPool
	if pool == nil && sc.Strict != nil {
		pool = model.OppositeClassPool(sc.Strict)
	}
	rate := sc.Rate
	if rate.IsZero() {
		rate = trace.Constant(VisionMeanRPS)
	}
	strictFrac := sc.StrictFrac
	if strictFrac == 0 && sc.Strict != nil {
		strictFrac = 0.5
	}
	return trace.Config{
		Rate: rate,
		Mix: trace.Mix{
			StrictFrac:   strictFrac,
			Strict:       sc.Strict,
			BEPool:       pool,
			RotatePeriod: sc.RotatePeriod,
		},
		Duration: p.Duration,
		Seed:     p.Seed,
	}
}

// buildScenario is the one place a one-shot run's cluster is
// constructed, for the experiments and the public API alike: it returns
// the scenario's trace config, the simulator (exposed so the events/sec
// counters can read Executed()), and the cluster wired onto it. p must
// be resolved. Callers choose how arrivals reach the cluster and what
// its recorders keep: RunScenarios replays a plan built from
// trace.NewStream at its reader's level, ScaleCell streams them into
// sketch recorders.
func buildScenario(p Params, sc Scenario, tr obs.Tracer, keep metrics.Level) (trace.Config, *sim.Sim, *cluster.Cluster, error) {
	if sc.Policy == nil {
		return trace.Config{}, nil, nil, errors.New("experiments: scenario without policy")
	}
	if sc.Strict == nil && sc.StrictFrac != 0 {
		return trace.Config{}, nil, nil, errors.New("experiments: scenario without strict model")
	}
	tc := traceConfig(p, sc)

	var prewarm []*model.Model
	if !sc.NoPrewarm {
		prewarm = append(prewarm, tc.Mix.BEPool...)
		if sc.Strict != nil {
			prewarm = append(prewarm, sc.Strict)
		}
	}
	vmCfg := sc.VM
	if vmCfg != nil {
		// The cluster manages Nodes/Listener on the config it is handed;
		// copy so concurrent scenarios never share one struct.
		clone := *vmCfg
		vmCfg = &clone
	}
	chaosCfg := p.Chaos
	if sc.Chaos != nil {
		chaosCfg = *sc.Chaos
	}
	s := sim.New(p.Seed)
	if tr != nil {
		s.SetTracer(tr)
	}
	if sc.Market != nil {
		if sc.Market.Policy == nil {
			return trace.Config{}, nil, nil, errors.New("experiments: market scenario without procurement policy")
		}
		mk, err := market.New(s, market.Config{}, sc.Market.Catalog)
		if err != nil {
			return trace.Config{}, nil, nil, err
		}
		if err := mk.Start(); err != nil {
			return trace.Config{}, nil, nil, err
		}
		if vmCfg == nil {
			vmCfg = &vm.Config{}
		}
		vmCfg.Market = mk
		vmCfg.Procurement = sc.Market.Policy()
	}
	c, err := cluster.New(s, cluster.Config{
		Nodes:         p.Nodes,
		Policy:        sc.Policy,
		SLOMultiplier: sc.SLOMultiplier,
		Warmup:        p.Warmup,
		PreWarm:       prewarm,
		PreWarmCount:  4,
		Scaler:        sc.Scaler,
		VM:            vmCfg,
		Arch:          sc.Arch,
		Chaos:         chaosCfg,
		Level:         keep,
	})
	if err != nil {
		return trace.Config{}, nil, nil, err
	}
	return tc, s, c, nil
}

// Table is a rendered experiment artifact.
type Table struct {
	// Title names the paper artifact ("Figure 5: ...").
	Title string `json:"title"`
	// Headers label the columns.
	Headers []string `json:"headers"`
	// Rows hold the cells.
	Rows [][]Cell `json:"rows"`
	// Notes carry caveats and calibration remarks.
	Notes []string `json:"notes,omitempty"`
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s\n%s\n", t.Title, strings.Repeat("-", len(t.Title))); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if _, err := fmt.Fprintln(tw, strings.Join(t.Headers, "\t")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(tw, strings.Join(cellStrings(row), "\t")); err != nil {
			return err
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Report is an experiment's output: one or more tables.
type Report struct {
	// ID is the registry key ("fig5").
	ID string `json:"id"`
	// Tables are the rendered artifacts.
	Tables []*Table `json:"tables"`
}

// Render writes every table.
func (r *Report) Render(w io.Writer) error {
	for _, t := range r.Tables {
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	// ID is the short key ("fig5", "table4").
	ID string
	// Title describes the paper artifact.
	Title string
	// Run executes the experiment.
	Run func(p Params) (*Report, error)
}

// Registry lists every experiment, in paper order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "fig2", Title: "Figure 2: motivational tail latency breakdown vs SLO compliance", Run: Fig2Motivation},
		{ID: "fig3", Title: "Figure 3: normalized FBRs of the workloads", Run: Fig3FBR},
		{ID: "fig5", Title: "Figure 5: SLO compliance for all schemes and vision models", Run: Fig5SLOCompliance},
		{ID: "fig6", Title: "Figure 6: P99 latency breakdown for vision models", Run: Fig6TailBreakdown},
		{ID: "fig7", Title: "Figure 7: dynamic geometry reconfiguration timeline", Run: Fig7ReconfigTimeline},
		{ID: "fig8", Title: "Figure 8: CDF of end-to-end latencies (SENet 18)", Run: Fig8LatencyCDF},
		{ID: "fig9", Title: "Figure 9: normalized cost vs SLO compliance under spot availability", Run: Fig9CostVsSLO},
		{ID: "fig10", Title: "Figure 10: throughput and GPU utilization", Run: Fig10ThroughputUtilization},
		{ID: "fig11", Title: "Figure 11: erratic (Twitter) trace tail breakdown", Run: Fig11ErraticTrace},
		{ID: "fig12", Title: "Figure 12: SLO compliance for VHI language models", Run: Fig12VHIModels},
		{ID: "fig13", Title: "Figure 13: SLO compliance for generative LLMs", Run: Fig13GenerativeLLMs},
		{ID: "fig14", Title: "Figure 14: skewed strictness ratios", Run: Fig14SkewedStrictness},
		{ID: "table4", Title: "Table 4: SLO compliance, 100% strict", Run: Table4AllStrict},
		{ID: "table5", Title: "Table 5: (P50, P99) latency, 100% best effort", Run: Table5AllBE},
		{ID: "fig15", Title: "Figure 15: tight (2x) SLO target", Run: Fig15TightSLO},
		{ID: "fig16", Title: "Figure 16: PROTEAN vs GPUlet (strategic MPS)", Run: Fig16GPUlet},
		{ID: "fig17", Title: "Figure 17: PROTEAN vs Oracle", Run: Fig17Oracle},
		{ID: "table3", Title: "Table 3: spot vs on-demand pricing", Run: Table3SpotPricing},
		{ID: "stats", Title: "Section 7: statistical significance of scheme differences", Run: StatsSignificance},
		{ID: "coldstarts", Title: "Section 4.2 claim: cold-start reduction from delayed termination", Run: ColdStarts},
		{ID: "knee", Title: "Extra: per-scheme saturation knees (load calibration)", Run: KneeSweep},
		{ID: "hopper", Title: "Section 7 generalizability: PROTEAN on Hopper (H100-80GB)", Run: Hopper},
	}
}

// Extras lists experiments that are not part of the paper reproduction
// and therefore excluded from `-run all` (keeping its output stable):
// the chaos fault sweep, the million-user scale sweep, the marketplace
// cost frontier and the design-choice ablations.
func Extras() []Experiment {
	return []Experiment{
		{ID: "chaos", Title: "Extra: availability and cost under injected faults (chaos sweep)", Run: ChaosSweep},
		{ID: "scale", Title: "Extra: million-user scale sweep (streamed arrivals, sketched recorders)", Run: ScaleSweep},
		{ID: "market", Title: "Extra: multi-provider marketplace cost frontier (procurement policies × volatility)", Run: MarketSweep},
		{ID: "ablations", Title: "Extra: PROTEAN with and without each design choice (ablations)", Run: Ablations},
	}
}

// ByID finds a registry or extras entry.
func ByID(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	for _, e := range Extras() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// helpers ------------------------------------------------------------------

// wikiRate is the diurnal Wiki-like trace scaled to the vision mean.
func wikiRate(duration float64) trace.RateFn {
	fn := trace.Diurnal(1, trace.DefaultWikiPeakToMean, duration)
	return trace.ScaleToMean(fn, VisionMeanRPS, duration)
}

// twitterRate is the erratic Twitter-like trace scaled to peak.
func twitterRate(duration float64, seed int64) trace.RateFn {
	fn := trace.Erratic(1, trace.DefaultTwitterPeakToMean, duration, seed)
	return trace.ScaleToPeak(fn, TwitterPeakRPS, duration)
}
