// Package eval implements the evaluation suite: the paper (a 2-page short
// paper) has no quantitative evaluation of its own, so each claim in the
// text is turned into a measurable experiment (E1–E13, listed by IDs; each
// experiment's doc comment names the claim it measures). Every experiment is
// deterministic given its config and renders its results as a Table;
// cmd/evalrun regenerates all of them, docs/PERF.md records reference
// tables and bench_test.go measures them.
package eval

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Table is a rendered experiment result.
type Table struct {
	ID    string // experiment id, e.g. "E1"
	Title string
	Cols  []string
	Rows  [][]string
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Cols))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table with aligned columns. Widths count runes, not
// bytes, so cells such as "∞" or "CARA α=0.2" pad like their ASCII peers.
func (t *Table) Fprint(w io.Writer) error {
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if n := utf8.RuneCountInString(cell); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	if _, err := fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	line := func(cells []string) error {
		var sb strings.Builder
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			sb.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(cell)))
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
		return err
	}
	if err := line(t.Cols); err != nil {
		return err
	}
	sep := make([]string, len(t.Cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := line(sep); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// CSV renders the table as comma-separated values (cells containing commas
// are quoted).
func (t *Table) CSV() string {
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				sb.WriteString(`"` + strings.ReplaceAll(c, `"`, `""`) + `"`)
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Cols)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return sb.String()
}

// String renders the table (fmt.Stringer).
func (t *Table) String() string {
	var sb strings.Builder
	// Fprint on a strings.Builder cannot fail.
	_ = t.Fprint(&sb)
	return sb.String()
}

func pct(x float64) string   { return fmt.Sprintf("%.1f%%", 100*x) }
func f2(x float64) string    { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string    { return fmt.Sprintf("%.3f", x) }
func itoa(n int) string      { return fmt.Sprintf("%d", n) }
func f1(x float64) string    { return fmt.Sprintf("%.1f", x) }
func ratio(x float64) string { return fmt.Sprintf("%.2f×", x) }
