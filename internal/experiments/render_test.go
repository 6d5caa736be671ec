package experiments

import (
	"strings"
	"testing"
)

func sampleTable() *Table {
	return &Table{
		Title:   "Sample",
		Headers: []string{"scheme", "SLO | note"},
		Rows:    [][]Cell{{text("PROTEAN"), pct(0.999)}, {text("INFless"), pct(0.026)}},
		Notes:   []string{"a caveat"},
	}
}

func TestRenderMarkdown(t *testing.T) {
	var sb strings.Builder
	if err := sampleTable().RenderMarkdown(&sb); err != nil {
		t.Fatalf("RenderMarkdown: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"### Sample", "| scheme |", "| --- |", "| PROTEAN | 99.90% |", "*a caveat*"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
	// Pipes inside cells must be escaped.
	if !strings.Contains(out, "SLO \\| note") && !strings.Contains(out, `SLO \| note`) {
		t.Errorf("pipe not escaped:\n%s", out)
	}
}

func TestRenderCSV(t *testing.T) {
	var sb strings.Builder
	if err := sampleTable().RenderCSV(&sb); err != nil {
		t.Fatalf("RenderCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV lines = %d, want 4:\n%s", len(lines), sb.String())
	}
	if !strings.HasPrefix(lines[0], "# Sample") {
		t.Errorf("first line = %q", lines[0])
	}
	if !strings.Contains(lines[2], "PROTEAN") {
		t.Errorf("data row = %q", lines[2])
	}
}

func TestRenderAs(t *testing.T) {
	report := &Report{ID: "x", Tables: []*Table{sampleTable()}}
	for _, f := range []Format{FormatText, FormatMarkdown, FormatCSV, ""} {
		var sb strings.Builder
		if err := report.RenderAs(&sb, f); err != nil {
			t.Errorf("RenderAs(%q): %v", f, err)
		}
		if sb.Len() == 0 {
			t.Errorf("RenderAs(%q) produced nothing", f)
		}
	}
	var sb strings.Builder
	if err := report.RenderAs(&sb, "yaml"); err == nil {
		t.Error("unknown format accepted")
	}
}
