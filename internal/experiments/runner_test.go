package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"protean/internal/model"
	"protean/internal/obs"
)

func TestWorkersResolution(t *testing.T) {
	if w := (Params{Parallel: 1}).workers(); w != 1 {
		t.Errorf("Parallel=1 → %d workers, want 1", w)
	}
	if w := (Params{Parallel: 0}).workers(); w < 1 {
		t.Errorf("Parallel=0 → %d workers, want >= 1", w)
	}
	if w := (Params{Parallel: 7}).workers(); w != 7 {
		t.Errorf("Parallel=7 → %d workers, want 7", w)
	}
}

func TestRunScenariosParallelMatchesSequential(t *testing.T) {
	schemes := PrimarySchemes()
	mk := func() []Scenario {
		var scs []Scenario
		for _, m := range []string{"ResNet 50", "ShuffleNet V2"} {
			for _, sch := range schemes {
				scs = append(scs, Scenario{
					Label:  m + "/" + sch.Name,
					Strict: model.MustByName(m),
					Policy: sch.Factory,
				})
			}
		}
		return scs
	}
	p := quickParams()
	p.Parallel = 1
	seq, err := RunScenarios(p, mk())
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	p.Parallel = 6
	par, err := RunScenarios(p, mk())
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if len(seq) != len(par) {
		t.Fatalf("result count differs: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		a, err := json.Marshal(seq[i].Recorder.Summarize())
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(par[i].Recorder.Summarize())
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("scenario %d diverged:\n seq: %s\n par: %s", i, a, b)
		}
	}
}

// traceEvents counts the events collected across every run of ts.
func traceEvents(ts *obs.TraceSet) int {
	n := 0
	for _, tr := range ts.Traces() {
		n += len(tr.Events)
	}
	return n
}

// TestRunScenariosTraceByteIdentical is the trace half of the parallel
// determinism contract: with a TraceSet attached, the merged Chrome and
// JSONL exports must be byte-identical whether the scenarios ran
// sequentially or across a worker pool.
func TestRunScenariosTraceByteIdentical(t *testing.T) {
	schemes := PrimarySchemes()
	mk := func() []Scenario {
		var scs []Scenario
		for _, sch := range schemes {
			scs = append(scs, Scenario{
				Label:  "ResNet 50/" + sch.Name,
				Strict: model.MustByName("ResNet 50"),
				Policy: sch.Factory,
			})
		}
		return scs
	}
	export := func(parallel int) (chrome, jsonl []byte) {
		t.Helper()
		p := quickParams()
		p.Parallel = parallel
		p.Trace = obs.NewTraceSet()
		if _, err := RunScenarios(p, mk()); err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		if traceEvents(p.Trace) == 0 {
			t.Fatalf("parallel=%d: no events collected", parallel)
		}
		var cb, jb bytes.Buffer
		if err := obs.WriteChrome(&cb, p.Trace.Traces()); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteJSONL(&jb, p.Trace.Traces()); err != nil {
			t.Fatal(err)
		}
		return cb.Bytes(), jb.Bytes()
	}
	seqChrome, seqJSONL := export(1)
	parChrome, parJSONL := export(6)
	if !bytes.Equal(seqChrome, parChrome) {
		t.Error("chrome trace differs between sequential and parallel runs")
	}
	if !bytes.Equal(seqJSONL, parJSONL) {
		t.Error("jsonl trace differs between sequential and parallel runs")
	}
}

// TestTracingDoesNotChangeResults: attaching a collector must be a pure
// observation — simulation outcomes stay identical with and without it.
func TestTracingDoesNotChangeResults(t *testing.T) {
	sc := func() Scenario {
		return Scenario{
			Strict: model.MustByName("ResNet 50"),
			Policy: PrimarySchemes()[0].Factory,
		}
	}
	p := quickParams()
	plain, err := RunScenario(p, sc(), nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := RunScenario(p, sc(), obs.NewCollector("traced"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(plain.Recorder.Summarize())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(traced.Recorder.Summarize())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("tracing changed the result:\n plain:  %s\n traced: %s", a, b)
	}
}

func TestRunScenariosErrorUsesLabelAndIndexOrder(t *testing.T) {
	// Two broken scenarios (no policy): the first by index must win
	// deterministically, labelled when a label is present.
	scs := []Scenario{
		{Strict: model.MustByName("ResNet 50"), Policy: PrimarySchemes()[0].Factory},
		{Label: "broken-a", Strict: model.MustByName("ResNet 50")},
		{Label: "broken-b", Strict: model.MustByName("ResNet 50")},
	}
	p := quickParams()
	p.Parallel = 4
	_, err := RunScenarios(p, scs)
	if err == nil {
		t.Fatal("scenario without policy accepted")
	}
	if !strings.Contains(err.Error(), "broken-a") {
		t.Errorf("error %q does not name the first failing scenario", err)
	}
	// Unlabelled failures fall back to the index.
	_, err = RunScenarios(p, []Scenario{{Strict: model.MustByName("ResNet 50")}})
	if err == nil || !strings.Contains(err.Error(), "scenario 0") {
		t.Errorf("error %q does not fall back to the scenario index", err)
	}
}

func TestSubSeed(t *testing.T) {
	if SubSeed(42, 0) != 42 {
		t.Errorf("replication 0 must keep the base seed, got %d", SubSeed(42, 0))
	}
	seen := map[int64]bool{}
	for base := int64(1); base <= 4; base++ {
		for i := 0; i < 16; i++ {
			s := SubSeed(base, i)
			if seen[s] {
				t.Fatalf("duplicate sub-seed %d (base %d, i %d)", s, base, i)
			}
			seen[s] = true
		}
	}
	// Neighbouring bases must not share shifted sequences.
	if SubSeed(1, 2) == SubSeed(2, 1) {
		t.Error("sub-seed collides across neighbouring bases")
	}
}

func TestParseCell(t *testing.T) {
	tests := []struct {
		in       string
		ok       bool
		val      float64
		prefix   string
		suffix   string
		decimals int
	}{
		{"93.21%", true, 93.21, "", "%", 2},
		{"12.5ms", true, 12.5, "", "ms", 1},
		{"$3.20", true, 3.20, "$", "", 2},
		{"-0.75", true, -0.75, "", "", 2},
		{"17", true, 17, "", "", 0},
		{"3.10e-05", false, 0, "", "", 0}, // scientific: left alone
		{"n/a", false, 0, "", "", 0},
		{"", false, 0, "", "", 0},
		{"ms", false, 0, "", "", 0},
	}
	for _, tt := range tests {
		c, ok := parseCell(tt.in)
		if ok != tt.ok {
			t.Errorf("parseCell(%q) ok = %v, want %v", tt.in, ok, tt.ok)
			continue
		}
		if !ok {
			continue
		}
		if c.value != tt.val || c.prefix != tt.prefix || c.suffix != tt.suffix || c.decimals != tt.decimals {
			t.Errorf("parseCell(%q) = %+v", tt.in, c)
		}
	}
}

func TestAggregateCell(t *testing.T) {
	got := aggregateCell([]string{"90.00%", "92.00%", "94.00%"})
	if !strings.HasPrefix(got, "92.00% ± ") || !strings.HasSuffix(got, "%") {
		t.Errorf("aggregateCell percent = %q", got)
	}
	if got := aggregateCell([]string{"$1.00", "$3.00"}); !strings.HasPrefix(got, "$2.00 ± ") {
		t.Errorf("aggregateCell dollars = %q", got)
	}
	// Non-numeric and mixed-format cells keep replication 0's value.
	if got := aggregateCell([]string{"PROTEAN", "PROTEAN"}); got != "PROTEAN" {
		t.Errorf("aggregateCell text = %q", got)
	}
	if got := aggregateCell([]string{"1.0ms", "2.0%"}); got != "1.0ms" {
		t.Errorf("aggregateCell mixed = %q", got)
	}
}

func TestRunReplicatedAggregates(t *testing.T) {
	e, ok := ByID("table4")
	if !ok {
		t.Fatal("table4 not registered")
	}
	p := quickParams()
	report, err := RunReplicated(e, p, 3)
	if err != nil {
		t.Fatalf("RunReplicated: %v", err)
	}
	found := false
	for _, tb := range report.Tables {
		for _, row := range tb.Rows {
			for _, cell := range row {
				if strings.Contains(cell, "±") {
					found = true
				}
			}
		}
		if len(tb.Notes) == 0 || !strings.Contains(tb.Notes[len(tb.Notes)-1], "replications") {
			t.Errorf("aggregated table %q missing replication note", tb.Title)
		}
	}
	if !found {
		t.Error("no mean ± CI cell in aggregated report")
	}
}

func TestRunReplicatedSingleSeedPassThrough(t *testing.T) {
	e, ok := ByID("table4")
	if !ok {
		t.Fatal("table4 not registered")
	}
	p := quickParams()
	plain, err := e.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	viaReplicated, err := RunReplicated(e, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(viaReplicated)
	if string(a) != string(b) {
		t.Errorf("seeds=1 must be a plain run:\n plain: %s\n repl:  %s", a, b)
	}
}

func TestRunReplicatedWrapsReplicationError(t *testing.T) {
	boom := errors.New("boom")
	e := Experiment{ID: "explode", Run: func(p Params) (*Report, error) {
		if p.Seed != 3 {
			return nil, boom
		}
		return &Report{ID: "explode"}, nil
	}}
	_, err := RunReplicated(e, quickParams(), 3)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "replication 1") {
		t.Errorf("err %q does not name the failing replication", err)
	}
}
