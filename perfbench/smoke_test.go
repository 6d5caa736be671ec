package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"protean/internal/experiments"
	"protean/internal/model"
	"protean/internal/trace"
)

// tinyWorkloads are the four workloads shrunk to a fraction of a second
// per pass, with the same code paths as the real ones.
func tinyWorkloads() []workload {
	return []workload{
		gridWorkload(gridSpec{
			params:      experiments.Params{Nodes: 2, Duration: 2, Warmup: 0.5, Quick: true, Parallel: 1, Shards: 1},
			only:        []string{"fig2", "table3"},
			extraSetups: 1,
		}),
		cellWorkload("vision-gateway", "", func(seed int64) cell {
			return scenarioCell("tiny vision", seed, model.MustByName("ResNet 50"), trace.Constant(500), 2, 0.5, false)
		}, 1),
		cellWorkload("scale-diurnal", "", func(seed int64) cell {
			c := scenarioCell("tiny scale", seed, model.MustByName("ResNet 50"), trace.Constant(2), 600, 15, true)
			c.stream = true
			return c
		}, 1),
		// 1000 requests at 400/s span two of the cluster's 2 s planning
		// ticks, so the traced run times DesiredGeometry calls.
		liveWorkload(liveSpec{openRate: 200, openSeconds: 0.2, closedReqs: 1000, closedRate: 400, extraSetups: 1}),
	}
}

// Every workload runs end to end, untraced and traced, passes its
// correctness gates and reports exactly the declared metrics.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range tinyWorkloads() {
		for _, traced := range []bool{false, true} {
			name := w.name + "/untraced"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				var log bytes.Buffer
				o := options{seed: 3, seconds: 0.6, traced: traced, tmpDir: t.TempDir()}
				rec := runWorkload(w, o, &log)
				if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d %v\n%s", rec.Correct, rec.Attempted, rec.Failed, rec.Failures, log.String())
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(rec.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(rec.Metrics), len(want))
				}
				share := 0.0
				for _, d := range want {
					m, ok := rec.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.Name, m, d.Unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
					if traced && isTimeUnit(d.Unit) && m.Value <= 0 {
						t.Errorf("per-layer time %s = %v, want > 0", d.Name, m.Value)
					}
					if strings.HasPrefix(d.Name, "cpu.") {
						share += m.Value
					}
				}
				if traced && math.Abs(share-100) > 1 {
					t.Errorf("cpu.* shares sum to %.2f%%, want 100 ± 1", share)
				}
				if _, ok := rec.Info["failed_frac"]; !ok {
					t.Error("no failed_frac in the run's info")
				}
				for n := range rec.Info {
					if !nameRE.MatchString(n) {
						t.Errorf("info name %q does not match %s", n, nameRE)
					}
				}
			})
		}
	}
}

// The paper-scale grid renders byte for byte what
// `protean-bench -run all -quick -seed 1 -parallel 1` prints.
func TestPaperGridFullSHA(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the paper-scale grid, about 35 s")
	}
	g := gridSpec{params: experiments.Params{Nodes: 8, Duration: 60, Warmup: 15, Quick: true, Parallel: 1, Shards: 1}}
	out, err := g.render(1)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(out)
	if got, want := hex.EncodeToString(sum[:]), "6ff46c4eed7ef16dca169b7aef5d27dcce1df135675cb8eaeb2c65593d59f6a4"; got != want {
		t.Errorf("grid sha256 %s, want %s", got, want)
	}
}
