package experiments

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"protean/internal/metrics"
	"protean/internal/model"
	"protean/internal/queue"
	"protean/internal/trace"
)

// sharedGrid is a rows × four-scheme grid under the Wiki trace, built
// the way the compliance harnesses build theirs.
func sharedGrid(p Params, models ...string) []Scenario {
	var ms []*model.Model
	for _, m := range models {
		ms = append(ms, model.MustByName(m))
	}
	return gridScenarios(ms, PrimarySchemes(), func(sc *Scenario) { sc.Rate = wikiRate(p.Duration) })
}

// groups returns the distinct trace groups of scs in first-use order.
func groups(scs []Scenario) []*arrivals {
	var out []*arrivals
	seen := map[*arrivals]bool{}
	for _, sc := range scs {
		if sc.shared != nil && !seen[sc.shared] {
			seen[sc.shared] = true
			out = append(out, sc.shared)
		}
	}
	return out
}

func TestGridRowsShareOneTrace(t *testing.T) {
	p := quickParams()
	scs := sharedGrid(p, "ShuffleNet V2", "ResNet 50", "VGG 19")
	schemes := len(PrimarySchemes())
	if got := len(groups(scs)); got != 3 {
		t.Fatalf("3 rows × %d schemes made %d trace groups, want 3", schemes, got)
	}
	for i, sc := range scs {
		if row := scs[i/schemes*schemes]; sc.shared != row.shared {
			t.Errorf("%s does not share %s's trace", sc.Label, row.Label)
		}
	}
	// Each member's own plan is the one its row shares, and both are the
	// plan of the generated trace.
	if err := armShared(p, scs); err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		tc := traceConfig(p, sc)
		shared, err := sc.shared.get(tc)
		if err != nil {
			t.Fatal(err)
		}
		own, err := planTrace(tc)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := trace.Generate(tc)
		if err != nil {
			t.Fatal(err)
		}
		generated, err := queue.Build(tc.Duration, trace.SliceSource(reqs))
		if err != nil {
			t.Fatal(err)
		}
		if len(own.Steps) == 0 || !reflect.DeepEqual(own, shared) || !reflect.DeepEqual(own, generated) {
			t.Errorf("%s: its own plan (%d steps), the shared one (%d) and the generated trace's (%d) differ",
				sc.Label, len(own.Steps), len(shared.Steps), len(generated.Steps))
		}
	}
}

// TestRunScenariosSharedRowsMatchUnshared runs one grid whose rows share
// their traces at Parallel 1 and 4 (the same batch twice, so the groups
// are re-armed) and once with every scenario generating its own trace.
// All three must agree byte for byte, and every group's trace must be
// released once its batch ends.
func TestRunScenariosSharedRowsMatchUnshared(t *testing.T) {
	p := quickParams()
	scs := sharedGrid(p, "ResNet 50", "ShuffleNet V2")
	summaries := func(parallel int, scs []Scenario) []string {
		t.Helper()
		p.Parallel = parallel
		sums, err := RunScenarios(p, scs, metrics.Rows, summarize)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		for _, a := range groups(scs) {
			if a.plan != nil || a.left != 0 {
				t.Errorf("parallel=%d: group kept its plan with %d members left", parallel, a.left)
			}
		}
		out := make([]string, len(sums))
		for i, sum := range sums {
			b, err := json.Marshal(sum)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = string(b)
		}
		return out
	}
	seq := summaries(1, scs)
	par := summaries(4, scs)
	unshared := make([]Scenario, len(scs))
	for i, sc := range scs {
		sc.shared = nil
		unshared[i] = sc
	}
	own := summaries(4, unshared)
	for i := range seq {
		if seq[i] != par[i] || seq[i] != own[i] {
			t.Errorf("%s diverged:\n seq:      %s\n par:      %s\n unshared: %s", scs[i].Label, seq[i], par[i], own[i])
		}
	}
}

func TestSharedTraceMismatchIsAnError(t *testing.T) {
	p := quickParams()
	for _, tt := range []struct {
		field  string
		change func(sc *Scenario)
	}{
		{"strict fraction", func(sc *Scenario) { sc.StrictFrac = 0.75 }},
		{"strict model", func(sc *Scenario) { sc.Strict = model.MustByName("VGG 19") }},
	} {
		scs := sharedGrid(p, "ResNet 50")
		tt.change(&scs[2])
		_, err := RunScenarios(p, scs, metrics.Counts, slo)
		if err == nil {
			t.Errorf("%s: a group whose members differ ran", tt.field)
			continue
		}
		for _, want := range []string{scs[0].Label, scs[2].Label, tt.field} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %q", tt.field, err, want)
			}
		}
	}
}
