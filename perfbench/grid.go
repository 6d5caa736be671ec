package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"time"

	"protean/internal/experiments"
	"protean/internal/model"
)

// gridSpec is the paper-grid workload: every experiments.Registry()
// entry rendered exactly as `protean-bench -run all` renders it.
type gridSpec struct {
	// params are protean-bench's Params; Seed is set per run.
	params experiments.Params
	// only restricts the grid to these experiment ids (nil: all).
	only []string
	// extraSetups is how many more timed cell set-ups each pass takes.
	extraSetups int
	// pin is the sha256 of the seed-1 rendering ("" when unpinned).
	pin string
}

func gridWorkload(g gridSpec) workload {
	return workload{
		name: "paper-grid",
		why:  "every paper experiment in quick mode: all schemes, the Table 3 fleet, the Oracle and H100; what a researcher waits on",
		run:  func(r *runner) error { return r.runGrid(g) },
	}
}

// render runs the grid and returns the bytes protean-bench would print
// to stdout for the same parameters.
func (g gridSpec) render(seed int64) ([]byte, error) {
	p := g.params
	p.Seed = seed
	var buf bytes.Buffer
	for _, e := range experiments.Registry() {
		if g.only != nil && !slices.Contains(g.only, e.ID) {
			continue
		}
		rep, err := experiments.RunReplicated(e, p, 1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := rep.RenderAs(&buf, experiments.Format("text")); err != nil {
			return nil, err
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// cell is the grid's representative cell: Figure 5's ResNet 50 under
// PROTEAN and the Wiki trace, at the grid's parameters. The registry
// builds about sixty cells like it per pass; the grid's setup_s is this
// cell's set-up, and its per-layer metrics come from this cell.
func (g gridSpec) cell(seed int64) cell {
	p := g.params
	return scenarioCell("paper-grid fig5 ResNet 50/PROTEAN", seed, model.MustByName("ResNet 50"),
		wikiRate(experiments.VisionMeanRPS, p.Duration), p.Duration, p.Warmup, false)
}

func (r *runner) runGrid(g gridSpec) error {
	c := g.cell(r.seed)
	var first string
	// pass sets up the representative cell (timed, then dropped) and
	// renders the grid, checking its bytes.
	pass := func() error {
		if err := r.moreSetups(g.extraSetups, c.timedBuild); err != nil {
			return err
		}
		r.res.attempted++
		sp := r.spans.begin("grid", "pass", r.root)
		defer r.spans.end(sp)
		t0 := time.Now()
		s0 := r.spans.begin("setup", "setup", sp)
		_, err := c.build(1, nil)
		r.spans.end(s0)
		if err != nil {
			return err
		}
		t1 := time.Now()
		s1 := r.spans.begin("run", "run", sp)
		out, err := g.render(r.seed)
		r.spans.end(s1)
		if err != nil {
			return err
		}
		t2 := time.Now()
		r.res.setup = append(r.res.setup, t1.Sub(t0).Seconds())
		r.res.run = append(r.res.run, t2.Sub(t1).Seconds())

		sum := sha256.Sum256(out)
		got := hex.EncodeToString(sum[:])
		switch {
		case first == "":
			first = got
			fmt.Fprintf(r.log, "perfbench: grid output sha256 %s (%d bytes)\n", got, len(out))
			if g.pin != "" && r.seed == 1 && got != g.pin {
				r.res.fail("grid output sha256 %s, pinned %s", got, g.pin)
			}
		case got != first:
			r.res.fail("grid output sha256 %s differs from the first pass's %s", got, first)
		}
		return nil
	}
	if !r.traced {
		r.loop(r.seconds, pass)
		return nil
	}
	profile := r.tempPath("cpu", ".pprof")
	if err := r.plainPhase(profile, r.seconds, pass); err != nil {
		return err
	}
	overhead, err := r.cellProbe(c)
	if err != nil {
		return err
	}
	r.res.layers["bench.tracing_overhead"] = overhead
	return r.attribute(profile)
}
