package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"protean/internal/cluster"
	"protean/internal/metrics"
	"protean/internal/obs"
	"protean/internal/queue"
	"protean/internal/trace"
)

// workers resolves Params.Parallel to a worker count: 0 means one
// worker per GOMAXPROCS, 1 forces sequential execution, anything else
// is taken literally.
func (p Params) workers() int {
	switch {
	case p.Parallel == 1:
		return 1
	case p.Parallel <= 0:
		return runtime.GOMAXPROCS(0)
	default:
		return p.Parallel
	}
}

// RunScenarios executes every scenario and returns read's digest of
// each result, indexed like scs. Each scenario owns its sim.Sim and
// cluster, so they fan out across a pool of Params.Parallel worker
// goroutines; digests are collected by index and the first error (in
// index order, not completion order) wins, which makes the outcome
// byte-identical to a sequential run regardless of scheduling.
// Scenarios that compare schemes on one workload (made by schemeRow or
// shareTrace) share one plan of its gateway batches: the first member
// to start plans the workload's arrival stream, the others replay the
// same read-only plan, and it is released when the group's last run
// ends. Every experiment harness
// that sweeps a scheme×model grid goes through here, with p already
// resolved by withDefaults.
//
// read is called once per successful run, on the worker that ran it,
// as soon as the run ends and before that worker starts another; a
// failed run is not read. Only read's return value is kept, so the
// result's recorder becomes garbage once read returns and a batch holds
// at most one run's rows per worker. read may touch only the result it
// is given.
//
// keep declares what read reads of the recorder, and every run records
// at that level: metrics.Counts for a reader of counts alone (request
// counts, SLO compliance, goodput), which then builds no rows at all,
// and metrics.Rows for one that reads latencies. A query above the
// level panics, so a reader cannot under-declare silently.
func RunScenarios[T any](p Params, scs []Scenario, keep metrics.Level, read func(*cluster.Result) T) ([]T, error) {
	if err := armShared(p, scs); err != nil {
		return nil, err
	}
	if recordRows {
		keep = metrics.Rows
	}
	out := make([]T, len(scs))
	errs := make([]error, len(scs))
	// Register trace collectors sequentially, by scenario index, before
	// any run starts: each run then writes its own collector, and the
	// merged trace order never depends on worker scheduling.
	tracers := make([]obs.Tracer, len(scs))
	if p.Trace != nil {
		for i, sc := range scs {
			tracers[i] = p.Trace.NewCollector(sc.Label)
		}
	}
	run := func(i int) {
		res, err := runScenario(p, scs[i], tracers[i], keep)
		if err != nil {
			errs[i] = err
			return
		}
		out[i] = read(res)
	}
	workers := p.workers()
	if workers > len(scs) {
		workers = len(scs)
	}
	if workers <= 1 {
		for i := range scs {
			run(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					run(i)
				}
			}()
		}
		for i := range scs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for i, err := range errs {
		if err == nil {
			continue
		}
		if scs[i].Label != "" {
			return nil, fmt.Errorf("%s: %w", scs[i].Label, err)
		}
		return nil, fmt.Errorf("scenario %d: %w", i, err)
	}
	return out, nil
}

// recordRows, when set, records every RunScenarios run at metrics.Rows
// whatever its reader declares. Only the level guard test sets it, to
// check that each count reader's cells are those its runs' rows give.
var recordRows bool

// arrivals is the plan a group of scenarios replays: the schemes
// compared on one workload. The first member to start plans the
// group's arrival stream once; the others wait for it and replay the
// same read-only plan. The bytes are those each member would get
// alone, because a plan is a pure function of its trace config, runs
// only read it, and armShared rejects a group whose members' configs
// differ.
type arrivals struct {
	once sync.Once
	plan *queue.Plan
	err  error

	mu   sync.Mutex
	left int // members of the running batch that have not finished
}

// shareTrace points scs at one new trace group. Their trace fields must
// agree; RunScenarios checks that before it runs them.
func shareTrace(scs []Scenario) {
	a := new(arrivals)
	for i := range scs {
		scs[i].shared = a
	}
}

// get returns the group's plan, building it from tc on first use.
func (a *arrivals) get(tc trace.Config) (*queue.Plan, error) {
	a.once.Do(func() { a.plan, a.err = planTrace(tc) })
	return a.plan, a.err
}

// release marks one member's run finished and drops the plan after the
// last, so a sequential batch holds at most one group's plan at once.
func (a *arrivals) release() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.left--; a.left == 0 {
		a.plan = nil
	}
}

// armShared readies every trace group in the batch before any run
// starts: it resets the group (so a batch may be run again), counts its
// members, and checks that each member would generate the same trace as
// the group's first by index, naming both when one would not. Rate is a
// func and cannot be compared; the group constructors give every member
// the same one.
func armShared(p Params, scs []Scenario) error {
	first := make(map[*arrivals]int)
	for i, sc := range scs {
		if sc.Trace != nil || sc.shared == nil {
			continue
		}
		j, seen := first[sc.shared]
		if !seen {
			first[sc.shared] = i
			*sc.shared = arrivals{}
		} else if field := traceDiff(traceConfig(p, scs[j]), traceConfig(p, sc)); field != "" {
			return fmt.Errorf("experiments: %q and %q share a trace but differ in %s", scs[j].Label, sc.Label, field)
		}
		sc.shared.left++
	}
	return nil
}

// traceDiff names the first comparable field in which two trace configs
// differ, or returns "" when they agree on all of them.
func traceDiff(a, b trace.Config) string {
	switch {
	case a.Mix.Strict != b.Mix.Strict:
		return "strict model"
	case !slices.Equal(a.Mix.BEPool, b.Mix.BEPool):
		return "BE pool"
	case !sameFloat(a.Mix.StrictFrac, b.Mix.StrictFrac):
		return "strict fraction"
	case !sameFloat(a.Mix.RotatePeriod, b.Mix.RotatePeriod):
		return "rotate period"
	case !sameFloat(a.Duration, b.Duration):
		return "duration"
	case a.Seed != b.Seed:
		return "seed"
	}
	return ""
}

func sameFloat(a, b float64) bool {
	//lint:ignore floateq a shared trace needs its members' parameters to be exactly equal, since any difference changes the generated bytes
	return a == b
}

// SubSeed derives the simulation seed for replication i of a base seed.
// Replication 0 keeps the base seed, so `-seeds 1` reproduces a plain
// run exactly; later replications mix the index through a splitmix64
// finalizer so neighbouring bases never share sub-seed sequences.
func SubSeed(base int64, i int) int64 {
	if i == 0 {
		return base
	}
	z := uint64(base) + uint64(i)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// RunReplicated runs the experiment seeds times — replication i under
// SubSeed(p.Seed, i) — and merges the reports cell-wise: a numeric
// cell becomes the mean ± half-width 95% confidence interval of its raw
// values via metrics.MeanCI95, rendered at its kind's precision; text
// and p-value cells keep replication 0's value. seeds <= 1 is a plain
// run.
func RunReplicated(e Experiment, p Params, seeds int) (*Report, error) {
	if seeds <= 1 {
		return e.Run(p)
	}
	p = p.withDefaults()
	reports := make([]*Report, seeds)
	for i := range reports {
		pi := p
		pi.Seed = SubSeed(p.Seed, i)
		r, err := e.Run(pi)
		if err != nil {
			return nil, fmt.Errorf("%s replication %d (seed %d): %w", e.ID, i, pi.Seed, err)
		}
		reports[i] = r
	}
	return aggregateReports(reports, p.Seed)
}

// aggregateReports merges same-shape reports cell-wise. Tables whose
// shape varies across replications (seed-dependent row counts, like the
// fig7 reconfiguration timeline) are kept from replication 0 verbatim,
// with a note saying so.
func aggregateReports(reports []*Report, baseSeed int64) (*Report, error) {
	base := reports[0]
	out := &Report{ID: base.ID}
	for ti, bt := range base.Tables {
		agg := &Table{
			Title:   bt.Title,
			Headers: append([]string{}, bt.Headers...),
			Notes:   append([]string{}, bt.Notes...),
		}
		if !sameShape(reports, ti) {
			agg.Rows = bt.Rows
			agg.Notes = append(agg.Notes, fmt.Sprintf(
				"rows are seed-dependent; showing seed %d only (no replication aggregate)", baseSeed))
			out.Tables = append(out.Tables, agg)
			continue
		}
		for ri, brow := range bt.Rows {
			row := make([]Cell, len(brow))
			for ci := range brow {
				cells := make([]Cell, len(reports))
				for k, r := range reports {
					cells[k] = r.Tables[ti].Rows[ri][ci]
				}
				row[ci] = aggregate(cells)
			}
			agg.Rows = append(agg.Rows, row)
		}
		agg.Notes = append(agg.Notes, fmt.Sprintf(
			"numeric cells are mean ± 95%% CI over %d replications (sub-seeds of seed %d)", len(reports), baseSeed))
		out.Tables = append(out.Tables, agg)
	}
	return out, nil
}

// sameShape reports whether table ti has identical row/column counts in
// every report.
func sameShape(reports []*Report, ti int) bool {
	base := reports[0].Tables[ti]
	for _, r := range reports[1:] {
		if ti >= len(r.Tables) || len(r.Tables[ti].Rows) != len(base.Rows) {
			return false
		}
		for ri, row := range r.Tables[ti].Rows {
			if len(row) != len(base.Rows[ri]) {
				return false
			}
		}
	}
	return true
}

// aggregate merges one cell position across replications: numeric
// cells of one kind and precision become their mean ± 95% CI. Text
// cells, positions whose format differs across replications, and
// p-values, whose magnitude varies too wildly across seeds for a linear
// mean to be honest, keep replication 0's cell.
func aggregate(cells []Cell) Cell {
	c := cells[0]
	if c.kind == kindText || c.kind == kindP {
		return c
	}
	vals := make([]float64, len(cells))
	for i, x := range cells {
		if x.kind != c.kind || x.prec != c.prec {
			return c
		}
		vals[i] = x.v
	}
	mean, half, err := metrics.MeanCI95(vals)
	if err != nil {
		return c
	}
	c.v, c.ci, c.reps = mean, half, len(cells)
	return c
}
