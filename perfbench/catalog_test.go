package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON is the schema of the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json and the code must declare the same workloads and
// metrics, and every name either emits must be a plain identifier.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "perfbench" {
		t.Errorf("paths = %v, want [perfbench]", bj.Paths)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, perfbench defaults to %d", bj.RunSeconds, defaultSeconds)
	}

	seen := map[string]bool{}
	checkName := func(kind, name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
	}

	ws := workloads()
	if len(bj.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(bj.Workloads), len(ws))
	}
	for i, w := range ws {
		checkName("workload", w.name)
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code {%s %s}", i, bj.Workloads[i], w.name, w.why)
		}
	}

	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		checkName("end-to-end metric", d.Name)
		j := bj.EndToEnd[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better || j.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, code %+v", i, j, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code %d", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		checkName("per-layer metric", d.Name)
		j := bj.PerLayer[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, code %+v", i, j, d)
		}
	}
}
