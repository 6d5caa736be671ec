// Command perfbench is the repository's benchmark: four workloads that
// drive the simulator and the live control plane through their public
// Go APIs and time them from the outside.
//
// From the repository root:
//
//	bash perfbench/run.sh --workload vision-gateway --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload live-ingest --trace 1 --trace-out spans.json
//	bash perfbench/run.sh --seed 2 --out results.jsonl      # all workloads
//	bash perfbench/run.sh --compare base.jsonl head.jsonl
//
// An untraced run (--trace 0) measures the end-to-end metrics; a traced
// run (--trace 1) measures the per-layer metrics: layer counters, layer
// replays, a CPU profile charged to layers, and a Chrome span file.
// Standard output ends with one JSON line per workload holding
// "correct", "attempted", "failed" and "metrics"; progress and
// summaries go to standard error. The exit code is 0 when every
// correctness gate passed, 1 when one failed and 2 on bad flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 25

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run (default: every workload in turn)")
		seed     = fs.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = fs.Float64("seconds", defaultSeconds, "host seconds to measure for")
		traced   = fs.Int("trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
		out      = fs.String("out", "", "append each run's full results as one JSON line to `file`")
		traceOut = fs.String("trace-out", "", "traced runs write their spans (Chrome trace JSON) to `file` (default: perfbench-spans-<workload>.json in the temp dir)")
		compare  = fs.Bool("compare", false, "compare two results files written by -out: -compare base.jsonl head.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare takes two results files")
			return 2
		}
		if err := compareFiles(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: usage: perfbench [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-out FILE] [-trace-out FILE]")
		return 2
	}
	selected := workloads()
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
			return 2
		}
		selected = []workload{w}
	}

	code := 0
	for _, w := range selected {
		o := options{seed: *seed, seconds: *seconds, traced: *traced == 1, traceOut: *traceOut, tmpDir: os.TempDir()}
		rec := runWorkload(w, o, stderr)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				code = 1
			}
		}
		line, err := json.Marshal(rec.summaryLine())
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !rec.Correct {
			code = 1
		}
	}
	return code
}

// options are one run's settings.
type options struct {
	seed     int64
	seconds  float64
	traced   bool
	traceOut string
	// tmpDir holds the traced run's CPU profile and, without traceOut,
	// its span file.
	tmpDir string
}

// result is what a workload measured in one run.
type result struct {
	// setup and run are per-pass host seconds (untraced runs).
	setup, run []float64
	peakHeapMB float64
	// attempted counts operations (passes, or HTTP requests on
	// live-ingest); failed counts those that errored or broke a
	// correctness gate.
	attempted, failed int
	failures          []string
	// layers holds the per-layer metrics (traced runs).
	layers map[string]float64
	// info holds further measurements worth printing and keeping in the
	// results file, such as live-ingest's open-loop latency.
	info map[string]float64
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// runner carries one workload run's settings and accumulates its result.
type runner struct {
	options
	workload string
	log      io.Writer
	spans    *spanLog  // nil unless traced
	heap     *heapPeak // nil when traced
	root     int       // the workload's span
	res      result
}

// loop calls pass at least once, and again while a pass of the mean
// length so far would end within budget host seconds, and returns how
// many passes ran. Each pass starts on a freshly collected heap, as a
// pass in a fresh process would.
func (r *runner) loop(budget float64, pass func() error) int {
	start := time.Now()
	for n := 1; ; n++ {
		runtime.GC()
		r.heap.beginPass()
		err := pass()
		r.heap.endPass()
		if err != nil {
			r.res.fail("pass %d: %v", n-1, err)
		}
		elapsed := time.Since(start).Seconds()
		if elapsed+elapsed/float64(n) > budget {
			return n
		}
	}
}

// moreSetups records n further set-up times from setup, which builds
// and drops what a pass would use. Workloads whose set-up is short next
// to a pass take several per pass, so setup_s is a median of enough
// samples to be steady.
func (r *runner) moreSetups(n int, setup func() (float64, error)) error {
	for range n {
		s, err := setup()
		if err != nil {
			return err
		}
		r.res.setup = append(r.res.setup, s)
	}
	return nil
}

// tempPath names a per-run file in the temp dir, which run.sh points
// inside the checkout's .bench_build/.
func (r *runner) tempPath(kind, ext string) string {
	return filepath.Join(r.tmpDir, fmt.Sprintf("perfbench-%s-%s%s", kind, r.workload, ext))
}

func runWorkload(w workload, o options, log io.Writer) record {
	r := &runner{options: o, workload: w.name, log: log}
	r.res.layers = map[string]float64{}
	r.res.info = map[string]float64{}
	if o.traced {
		r.spans = newSpanLog()
	} else {
		r.heap = startHeapPeak()
	}
	mode := "untraced"
	if o.traced {
		mode = "traced"
	}
	fmt.Fprintf(log, "perfbench: %s seed=%d seconds=%g %s\n", w.name, o.seed, o.seconds, mode)
	started := time.Now()
	r.root = r.spans.begin(w.name, "workload", 0)
	err := w.run(r)
	r.spans.end(r.root)
	if err != nil {
		r.res.fail("%v", err)
	}
	if r.heap != nil {
		r.res.peakHeapMB = r.heap.finish()
	}
	if o.traced {
		r.writeSpans()
	}
	rec := r.record()
	for _, f := range r.res.failures {
		fmt.Fprintln(log, "perfbench: FAIL:", f)
	}
	fmt.Fprintf(log, "perfbench: %s done in %.1fs: attempted=%d failed=%d\n", w.name, time.Since(started).Seconds(), rec.Attempted, rec.Failed)
	printMetrics(log, rec)
	return rec
}

// record assembles the run's reported metrics: every end-to-end metric
// untraced, every per-layer metric traced.
func (r *runner) record() record {
	rec := record{
		Workload: r.workload,
		Seed:     r.seed,
		Seconds:  r.seconds,
		Metrics:  map[string]recordMetric{},
		Info:     r.res.info,
	}
	if r.traced {
		rec.Trace = 1
		for _, d := range perLayer {
			v, ok := r.res.layers[d.Name]
			if !ok && isTimeUnit(d.Unit) {
				r.res.fail("per-layer time %s was not measured", d.Name)
			}
			rec.Metrics[d.Name] = r.metric(d, v, nil)
		}
	} else {
		rec.Metrics["setup_s"] = r.metric(endToEnd[0], median(r.res.setup), r.res.setup)
		rec.Metrics["run_s"] = r.metric(endToEnd[1], median(r.res.run), r.res.run)
		rec.Metrics["peak_heap_mb"] = r.metric(endToEnd[2], r.res.peakHeapMB, nil)
	}
	rec.Attempted = max(r.res.attempted, 1)
	rec.Failed = r.res.failed
	rec.Info["failed_frac"] = float64(rec.Failed) / float64(rec.Attempted)
	rec.Failures = r.res.failures
	rec.Correct = r.res.failed == 0
	return rec
}

// metric packages one value with its samples, refusing values JSON
// cannot carry.
func (r *runner) metric(d metricDef, v float64, samples []float64) recordMetric {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.res.fail("%s is %v", d.Name, v)
		v = 0
	}
	m := recordMetric{Value: v, Unit: d.Unit, Samples: samples}
	if len(samples) > 1 {
		m.Q1, _, m.Q3 = quartiles(samples)
		if p := supportedPercentile(len(samples)); p > 0 {
			m.TailPercentile, m.Tail = p, percentile(samples, p)
		}
	}
	return m
}

// printMetrics writes the run's metrics and extra measurements, sorted
// by name, to the progress log.
func printMetrics(w io.Writer, rec record) {
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		line := fmt.Sprintf("  %-36s %14.6g %s", n, m.Value, m.Unit)
		if len(m.Samples) > 1 {
			line += fmt.Sprintf("  (n=%d, q1 %.6g, q3 %.6g", len(m.Samples), m.Q1, m.Q3)
			if m.TailPercentile > 0 {
				line += fmt.Sprintf(", p%g %.6g", m.TailPercentile, m.Tail)
			}
			line += ")"
		}
		fmt.Fprintln(w, line)
	}
	infos := make([]string, 0, len(rec.Info))
	for n := range rec.Info {
		infos = append(infos, n)
	}
	sort.Strings(infos)
	for _, n := range infos {
		fmt.Fprintf(w, "  info %-31s %14.6g\n", n, rec.Info[n])
	}
}

// writeSpans exports the traced run's spans and prints each span
// category's self time.
func (r *runner) writeSpans() {
	path := r.traceOut
	if path == "" {
		path = r.tempPath("spans", ".json")
	}
	if err := writeFile(path, r.spans.writeChrome); err != nil {
		r.res.fail("write spans: %v", err)
		return
	}
	fmt.Fprintf(r.log, "perfbench: %d spans (%d dropped) -> %s\n", len(r.spans.spans), r.spans.dropped, path)
	self := r.spans.selfTimes()
	cats := make([]string, 0, len(self))
	for c := range self {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	for _, c := range cats {
		fmt.Fprintf(r.log, "  self %-31s %14.3f s\n", c, self[c].Seconds())
	}
}

// writeFile creates path and streams fill into it, reporting the first
// error including the one from Close.
func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = fill(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
