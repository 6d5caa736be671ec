package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// Events returns the total event count across runs.
func (ts *TraceSet) Events() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	n := 0
	for _, c := range ts.cols {
		n += c.Len()
	}
	return n
}

// fixtureTrace is a hand-built event stream exercising every Chrome
// render path: a completed strict batch (with cold start and engine
// phases), a dropped BE batch, a paired and an orphaned MIG
// reconfiguration, a slowdown counter, VM lease churn, and an
// autoscale decision.
func fixtureTrace() Trace {
	p := &Phases{Queue: 0.001, MinPossible: 0.004, Deficiency: 0.002, Interference: 0.0005}
	return Trace{Label: "fixture run", Events: []Event{
		{T: 0.000, Kind: KindAutoscale, Node: 0, Slice: -1, Model: "ResNet 50", Detail: "prewarm", Value: 4},
		{T: 0.000, Kind: KindVMLease, Node: 1, Slice: -1, Detail: "spot"},
		{T: 0.060, Kind: KindBatchSeal, Node: -1, Slice: -1, Batch: 1, Model: "ResNet 50", Strict: true, Requests: 2, Value: 0.010},
		{T: 0.060, Kind: KindDispatch, Node: 0, Slice: -1, Batch: 1, Model: "ResNet 50", Strict: true, Requests: 2},
		{T: 0.060, Kind: KindColdStart, Node: 0, Slice: -1, Batch: 1, Value: 0.5},
		{T: 0.080, Kind: KindBatchSeal, Node: -1, Slice: -1, Batch: 2, Model: "VGG 19", Requests: 4, Value: 0.055},
		{T: 0.080, Kind: KindDrop, Node: 1, Slice: -1, Batch: 2, Requests: 4},
		{T: 0.200, Kind: KindReconfigBegin, Node: 1, Slice: -1, Detail: "(4g, 3g)"},
		{T: 0.300, Kind: KindSlowdown, Node: 0, Slice: 1, Value: 1.3333},
		{T: 0.560, Kind: KindAdmit, Node: 0, Slice: 1, Batch: 1, Model: "ResNet 50", Strict: true, Requests: 2},
		{T: 0.561, Kind: KindExecStart, Node: 0, Slice: 1, Batch: 1, Model: "ResNet 50", Strict: true, Requests: 2},
		{T: 0.568, Kind: KindExecEnd, Node: 0, Slice: 1, Batch: 1, Model: "ResNet 50", Strict: true, Requests: 2, Phases: p},
		{T: 0.900, Kind: KindReconfigEnd, Node: 1, Slice: -1, Detail: "(4g, 3g)"},
		{T: 1.000, Kind: KindReconfigEnd, Node: 0, Slice: -1, Detail: "(7g)"},
		{T: 2.000, Kind: KindVMNotice, Node: 1, Slice: -1, Value: 2.12},
		{T: 2.120, Kind: KindVMDown, Node: 1, Slice: -1},
	}}
}

// checkGolden compares got against testdata/<name>, rewriting the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run `go test ./internal/obs -update` to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (re-run with -update after intentional changes)\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

func TestChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, []Trace{fixtureTrace()}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_chrome.json", buf.Bytes())

	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev["ph"].(string)]++
	}
	// 3 metadata (process + gateway + 2 nodes = 4, actually), 1 b/e pair,
	// 2 X reconfigs, 1 C counter, 5 instants — assert the per-phase mix
	// so a silently dropped render path fails loudly.
	want := map[string]int{"M": 4, "b": 1, "e": 1, "X": 2, "C": 1, "i": 5}
	for ph, n := range want {
		if phases[ph] != n {
			t.Errorf("phase %q count = %d, want %d (all: %v)", ph, phases[ph], n, phases)
		}
	}
}

func TestJSONLGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, []Trace{fixtureTrace()}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_events.jsonl", buf.Bytes())

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(fixtureTrace().Events)+1 {
		t.Fatalf("lines = %d, want header + %d events", len(lines), len(fixtureTrace().Events))
	}
	var header struct {
		Run    string `json:"run"`
		Events int    `json:"events"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil {
		t.Fatalf("header: %v", err)
	}
	if header.Run != "fixture run" || header.Events != len(fixtureTrace().Events) {
		t.Errorf("header = %+v", header)
	}
	for i, line := range lines[1:] {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event line %d: %v", i, err)
		}
	}
}

// TestExportsAreRepeatable: exporting the same trace twice must yield
// identical bytes — the determinism contract the CLI and CI rely on.
func TestExportsAreRepeatable(t *testing.T) {
	traces := []Trace{fixtureTrace(), {Label: "empty"}}
	var a, b bytes.Buffer
	if err := WriteChrome(&a, traces); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, traces); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("chrome export not repeatable")
	}
	a.Reset()
	b.Reset()
	if err := WriteJSONL(&a, traces); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, traces); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("jsonl export not repeatable")
	}
}

func TestChromeEmptyTraceSet(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty export is not valid JSON: %v\n%s", err, buf.String())
	}
}
