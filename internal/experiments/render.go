package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Cell is one table cell: a number together with the format its
// harness chose for it, or text. The number stays a number until String
// renders it, so RunReplicated averages raw values and tests read them
// without parsing.
type Cell struct {
	kind cellKind
	prec int     // decimals of a dollars or fixed cell
	v    float64 // the value as measured: a fraction for percent, seconds for millis
	ci   float64 // 95% CI half-width of a replicated mean
	reps int     // replications averaged into v; 0 for one run's value
	text string  // a text cell's contents
}

// cellKind is a cell's format.
type cellKind uint8

const (
	kindText    cellKind = iota
	kindPercent          // %.2f%% of v·100
	kindMillis           // %.1fms of v·1000
	kindDollars          // $%.Nf
	kindFixed            // %.Nf
	kindSigned           // %+.2f
	kindCount            // %d
	kindP                // formatP
)

func text(s string) Cell { return Cell{text: s} }

func pct(x float64) Cell { return Cell{kind: kindPercent, v: x} }

func ms(x float64) Cell { return Cell{kind: kindMillis, v: x} }

func dollars(x float64, prec int) Cell { return Cell{kind: kindDollars, v: x, prec: prec} }

func fixed(x float64, prec int) Cell { return Cell{kind: kindFixed, v: x, prec: prec} }

func signed(x float64) Cell { return Cell{kind: kindSigned, v: x, prec: 2} }

func count[T int | uint64](n T) Cell { return Cell{kind: kindCount, v: float64(n)} }

func pvalue(p float64) Cell { return Cell{kind: kindP, v: p} }

// String renders the cell: a replicated mean as "mean ± half", with
// the kind's sign or currency prefix on the mean only.
func (c Cell) String() string {
	switch c.kind {
	case kindText:
		return c.text
	case kindP:
		return formatP(c.v)
	}
	s := c.format(c.v, true)
	if c.reps > 0 {
		s += " ± " + c.format(c.ci, false)
	}
	return s
}

// format renders x at the cell's kind and precision; lead adds the
// kind's sign or currency prefix, which a CI half-width goes without.
func (c Cell) format(x float64, lead bool) string {
	switch {
	case c.kind == kindPercent:
		return fmt.Sprintf("%.2f%%", x*100)
	case c.kind == kindMillis:
		return fmt.Sprintf("%.1fms", x*1000)
	case !lead:
	case c.kind == kindSigned:
		return fmt.Sprintf("%+.*f", c.prec, x)
	case c.kind == kindDollars:
		return fmt.Sprintf("$%.*f", c.prec, x)
	}
	// A count has prec 0, and %.0f prints an integral value as %d does.
	return fmt.Sprintf("%.*f", c.prec, x)
}

// MarshalJSON encodes the cell as its rendered string.
func (c Cell) MarshalJSON() ([]byte, error) { return json.Marshal(c.String()) }

// cellStrings renders a row.
func cellStrings(row []Cell) []string {
	out := make([]string, len(row))
	for i, c := range row {
		out[i] = c.String()
	}
	return out
}

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
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(escapeCells(cellStrings(row)), " | ")); err != nil {
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
		if err := cw.Write(cellStrings(row)); err != nil {
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
