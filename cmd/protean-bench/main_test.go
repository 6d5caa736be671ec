package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out, io.Discard); err != nil {
		t.Fatalf("run -list: %v", err)
	}
	if !strings.Contains(out.String(), "available experiments:") {
		t.Errorf("missing header in: %q", out.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-run", "fig999"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunQuickExperiment(t *testing.T) {
	var out, errs bytes.Buffer
	if err := run([]string{"-run", "table3", "-quick"}, &out, &errs); err != nil {
		t.Fatalf("run table3: %v", err)
	}
	if !strings.Contains(errs.String(), "[table3 completed in ") {
		t.Errorf("timing line missing from stderr: %q", errs.String())
	}
	if strings.Contains(out.String(), "completed in") {
		t.Error("timing line leaked onto stdout")
	}
}

func TestRunQuickExperimentJSON(t *testing.T) {
	if err := run([]string{"-run", "table3", "-quick", "-json"}, io.Discard, io.Discard); err != nil {
		t.Fatalf("run table3 -json: %v", err)
	}
}

// TestRunRejectsBadFlagsBeforeRunning: an unknown -format, or a
// -warmup at or past the effective -duration, fails (main exits 1)
// before the first experiment starts, so nothing reaches stdout and no
// timing line is printed.
func TestRunRejectsBadFlagsBeforeRunning(t *testing.T) {
	for _, args := range [][]string{
		{"-run", "fig5", "-quick", "-format", "xml"},
		{"-run", "fig5", "-quick", "-format", "xml", "-json"},
		{"-run", "fig5", "-quick", "-warmup", "100"},
		{"-run", "fig5", "-quick", "-warmup", "60"},
		{"-run", "table3", "-quick", "-duration", "10"},
		{"-run", "table3", "-quick", "-duration", "10", "-warmup", "10"},
	} {
		var out, errs bytes.Buffer
		if err := run(args, &out, &errs); err == nil {
			t.Errorf("%v: accepted", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed to stdout: %q", args, out.String())
		}
		if strings.Contains(errs.String(), "completed in") {
			t.Errorf("%v: ran an experiment before failing: %q", args, errs.String())
		}
	}
	// A warmup just below the duration, or one the defaults derive from
	// a short duration, is accepted.
	for _, args := range [][]string{
		{"-run", "table3", "-quick", "-duration", "10", "-warmup", "9"},
		{"-run", "table3", "-quick", "-duration", "10", "-warmup", "0"},
	} {
		if err := run(args, io.Discard, io.Discard); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}, io.Discard, io.Discard); err != nil {
		// flag.ContinueOnError surfaces the parse error; that is the point.
		return
	}
	t.Fatal("bad flag accepted")
}

// TestParallelStdoutByteIdentical is the tool-level determinism contract:
// the same invocation must print byte-identical tables whether scenarios
// run sequentially or across a worker pool.
func TestParallelStdoutByteIdentical(t *testing.T) {
	outputs := make([]string, 2)
	for i, par := range []string{"1", "4"} {
		var out bytes.Buffer
		args := []string{"-run", "table4,fig8", "-quick", "-seed", "7", "-parallel", par}
		if err := run(args, &out, io.Discard); err != nil {
			t.Fatalf("run -parallel %s: %v", par, err)
		}
		outputs[i] = out.String()
	}
	if outputs[0] != outputs[1] {
		t.Errorf("stdout differs between -parallel 1 and -parallel 4:\n--- sequential ---\n%s\n--- parallel ---\n%s",
			outputs[0], outputs[1])
	}
}

// TestTraceByteIdenticalAcrossParallel is the trace determinism
// contract: -trace must write the same bytes whether the scenarios ran
// sequentially or across a worker pool, in both export formats.
func TestTraceByteIdenticalAcrossParallel(t *testing.T) {
	dir := t.TempDir()
	for _, ext := range []string{".json", ".jsonl"} {
		files := make([][]byte, 2)
		for i, par := range []string{"1", "4"} {
			path := filepath.Join(dir, "p"+par+ext)
			args := []string{"-run", "fig8", "-quick", "-seed", "7", "-parallel", par, "-trace", path}
			if err := run(args, io.Discard, io.Discard); err != nil {
				t.Fatalf("run -parallel %s -trace: %v", par, err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read trace: %v", err)
			}
			if len(data) == 0 {
				t.Fatalf("empty trace file %s", path)
			}
			files[i] = data
		}
		if !bytes.Equal(files[0], files[1]) {
			t.Errorf("%s trace differs between -parallel 1 and -parallel 4", ext)
		}
	}
}

// TestTraceRepeatable: two identical traced invocations must produce
// byte-identical exports.
func TestTraceRepeatable(t *testing.T) {
	dir := t.TempDir()
	files := make([][]byte, 2)
	for i := range files {
		path := filepath.Join(dir, fmt.Sprintf("run%d.json", i))
		if err := run([]string{"-run", "table4", "-quick", "-seed", "3", "-trace", path}, io.Discard, io.Discard); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		files[i] = data
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Error("repeated traced runs produced different bytes")
	}
}

// TestTraceSummaryOnStderr: the trace report goes to stderr so stdout
// stays byte-identical with and without -trace.
func TestTraceSummaryOnStderr(t *testing.T) {
	dir := t.TempDir()
	var plain, traced, errs bytes.Buffer
	if err := run([]string{"-run", "table4", "-quick"}, &plain, io.Discard); err != nil {
		t.Fatalf("plain run: %v", err)
	}
	path := filepath.Join(dir, "t.json")
	if err := run([]string{"-run", "table4", "-quick", "-trace", path}, &traced, &errs); err != nil {
		t.Fatalf("traced run: %v", err)
	}
	if plain.String() != traced.String() {
		t.Error("-trace changed stdout")
	}
	if !strings.Contains(errs.String(), "[trace: ") {
		t.Errorf("trace summary missing from stderr: %q", errs.String())
	}
}

// TestSeedsAggregates exercises -seeds: replicated runs must produce
// mean ± CI cells and still render without error.
func TestSeedsAggregates(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "table4", "-quick", "-seeds", "3"}, &out, io.Discard); err != nil {
		t.Fatalf("run -seeds 3: %v", err)
	}
	if !strings.Contains(out.String(), "±") {
		t.Errorf("expected mean ± CI cells in aggregated output:\n%s", out.String())
	}
}

// TestProfileFlags: -cpuprofile and -memprofile must write non-empty
// pprof files without perturbing stdout.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var plain, profiled bytes.Buffer
	if err := run([]string{"-run", "table4", "-quick"}, &plain, io.Discard); err != nil {
		t.Fatalf("plain run: %v", err)
	}
	if err := run([]string{"-run", "table4", "-quick", "-cpuprofile", cpu, "-memprofile", mem}, &profiled, io.Discard); err != nil {
		t.Fatalf("profiled run: %v", err)
	}
	if plain.String() != profiled.String() {
		t.Error("profiling flags changed stdout")
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Errorf("profile not written: %v", err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}
