package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// RenderMarkdown writes the table as GitHub-flavoured markdown.
func (t *Table) RenderMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "### %s\n\n", t.Title); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(escapeCells(t.Headers), " | ")); err != nil {
		return err
	}
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = "---"
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | ")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(escapeCells(row), " | ")); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "\n*%s*\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func escapeCells(cells []string) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = strings.ReplaceAll(c, "|", "\\|")
	}
	return out
}

// RenderCSV writes the table as CSV: a title row, the header row, then
// the data rows.
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"# " + t.Title}); err != nil {
		return err
	}
	if err := cw.Write(t.Headers); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Format selects a report rendering.
type Format string

// Supported report formats.
const (
	FormatText     Format = "text"
	FormatMarkdown Format = "markdown"
	FormatCSV      Format = "csv"
)

// Validate rejects a format RenderAs does not know.
func (f Format) Validate() error {
	switch f {
	case FormatText, "", FormatMarkdown, FormatCSV:
		return nil
	}
	return fmt.Errorf("experiments: unknown format %q", f)
}

// RenderAs writes every table in the requested format.
func (r *Report) RenderAs(w io.Writer, f Format) error {
	if err := f.Validate(); err != nil {
		return err
	}
	for _, t := range r.Tables {
		var err error
		switch f {
		case FormatMarkdown:
			err = t.RenderMarkdown(w)
		case FormatCSV:
			err = t.RenderCSV(w)
		default:
			err = t.Render(w)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
