// Command protean-bench regenerates the tables and figures of the
// PROTEAN paper's evaluation on the simulated cluster.
//
// Usage:
//
//	protean-bench -list
//	protean-bench -run fig5
//	protean-bench -run all -duration 60 -nodes 8
//	protean-bench -run all -parallel 4
//	protean-bench -run fig5 -seeds 5
//	protean-bench -run fig9 -json
//	protean-bench -run fig2 -quick -trace fig2.json
//
// -trace records every simulation's lifecycle events and writes the
// merged trace to FILE: Chrome trace-event JSON (open in Perfetto or
// chrome://tracing) by default, or a JSONL event log when FILE ends in
// .jsonl. The trace is deterministic: same seed, same bytes, at any
// -parallel setting.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"protean/internal/experiments"
	"protean/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "protean-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("protean-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list available experiments")
		runIDs   = fs.String("run", "", "comma-separated experiment IDs, or 'all'")
		nodes    = fs.Int("nodes", 8, "worker node count")
		duration = fs.Float64("duration", 60, "trace duration in seconds")
		warmup   = fs.Float64("warmup", 15, "metrics warmup in seconds")
		seed     = fs.Int64("seed", 1, "random seed")
		seeds    = fs.Int("seeds", 1, "replications under derived sub-seeds; >1 reports mean ± 95% CI")
		parallel = fs.Int("parallel", 0, "scenario worker goroutines (0 = all CPUs, 1 = sequential)")
		quick    = fs.Bool("quick", false, "smaller model sweeps and durations")
		asJSON   = fs.Bool("json", false, "emit JSON instead of text tables")
		format   = fs.String("format", "text", "table format: text, markdown, csv")
		traceOut = fs.String("trace", "", "write a merged lifecycle trace to `file` (.jsonl = event log, else Chrome trace JSON)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the experiment runs to `file`")
		memProf  = fs.String("memprofile", "", "write an allocation profile (after the runs) to `file`")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	params := experiments.Params{
		Nodes:    *nodes,
		Duration: *duration,
		Warmup:   *warmup,
		Seed:     *seed,
		Parallel: *parallel,
		Quick:    *quick,
	}
	// Reject bad flags before any experiment runs: a bad format would
	// only fail at the first render, and an empty metric window would
	// print a table of NaN cells.
	if err := experiments.Format(*format).Validate(); err != nil {
		return err
	}
	if err := params.Validate(); err != nil {
		return err
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "protean-bench: cpuprofile:", err)
			}
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(stderr, "protean-bench: memprofile:", err)
				return
			}
			runtime.GC() // flush dead objects so the profile shows live + cumulative allocs accurately
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(stderr, "protean-bench: memprofile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "protean-bench: memprofile:", err)
			}
		}()
	}

	if *list || *runIDs == "" {
		fmt.Fprintln(stdout, "available experiments:")
		for _, e := range experiments.Registry() {
			fmt.Fprintf(stdout, "  %-8s %s\n", e.ID, e.Title)
		}
		fmt.Fprintln(stdout, "extras (not part of -run all):")
		for _, e := range experiments.Extras() {
			fmt.Fprintf(stdout, "  %-8s %s\n", e.ID, e.Title)
		}
		if *runIDs == "" && !*list {
			fmt.Fprintln(stdout, "\nrun with -run <id>[,<id>...] or -run all")
		}
		return nil
	}

	var selected []experiments.Experiment
	if *runIDs == "all" {
		selected = experiments.Registry()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			e, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, e)
		}
	}

	if *traceOut != "" {
		params.Trace = obs.NewTraceSet()
	}
	for _, e := range selected {
		started := time.Now()
		report, err := experiments.RunReplicated(e, params, *seeds)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		// Wall-clock goes to stderr: stdout must stay byte-identical
		// across -parallel settings, and timings never are.
		fmt.Fprintf(stderr, "[%s completed in %s]\n", e.ID, time.Since(started).Round(time.Millisecond))
		if *asJSON {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(report); err != nil {
				return err
			}
			continue
		}
		if err := report.RenderAs(stdout, experiments.Format(*format)); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	if params.Trace != nil {
		if err := writeTrace(*traceOut, params.Trace, stderr); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return nil
}

// writeTrace exports the merged trace set to path, picking the format
// from the extension, and summarizes what was recorded on stderr.
func writeTrace(path string, ts *obs.TraceSet, stderr io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	traces := ts.Traces()
	if strings.HasSuffix(path, ".jsonl") {
		err = obs.WriteJSONL(f, traces)
	} else {
		err = obs.WriteChrome(f, traces)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	var all []obs.Event
	for _, tr := range traces {
		all = append(all, tr.Events...)
	}
	fmt.Fprintf(stderr, "[trace: %d runs, %d events (%s) -> %s]\n",
		len(traces), len(all), obs.FormatKindCounts(obs.KindCounts(all)), path)
	return nil
}
