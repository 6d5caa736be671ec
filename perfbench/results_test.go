package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, runS []float64) string {
		path := filepath.Join(dir, name)
		for i, v := range runS {
			rec := record{Workload: "vision-gateway", Seed: int64(i + 1), Correct: true, Metrics: map[string]recordMetric{
				"setup_s":      {Value: 0.07, Unit: "s"},
				"run_s":        {Value: v, Unit: "s"},
				"peak_heap_mb": {Value: 300, Unit: "MB"},
			}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base.jsonl", []float64{0.50, 0.51, 0.49, 0.50, 0.505})
	head := write("head.jsonl", []float64{0.70, 0.71, 0.69, 0.70, 0.705})
	var out bytes.Buffer
	if err := compareFiles(base, head, &out); err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		f := strings.Fields(line)
		rows[f[0]+" "+f[1]] = f[2]
	}
	for metric, want := range map[string]verdict{"run_s": worse, "setup_s": same, "peak_heap_mb": same} {
		if got := rows["vision-gateway "+metric]; got != string(want) {
			t.Errorf("%s: verdict %q, want %q\n%s", metric, got, want, out.String())
		}
	}
}

// With fewer than three runs a side, the comparison falls back to the
// runs' per-pass samples.
func TestMetricValuesFallsBackToSamples(t *testing.T) {
	recs := []record{{Workload: "w", Metrics: map[string]recordMetric{"run_s": {Value: 2, Samples: []float64{1, 2, 3}}}}}
	if got := metricValues(recs, "w", "run_s"); len(got) != 3 {
		t.Errorf("one run: values %v, want its 3 samples", got)
	}
	recs = append(recs, recs[0], recs[0])
	if got := metricValues(recs, "w", "run_s"); len(got) != 3 || got[0] != 2 {
		t.Errorf("three runs: values %v, want one median per run", got)
	}
}
