package metrics

import (
	"fmt"
	"io"
	"strings"
)

// Table renders experiment results as a fixed-width text table, the format
// every cmd/bench experiment prints. Columns are sized to their widest
// cell.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
	values  [][]any
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row. Each cell keeps the value it was given and its
// text: floats format as %.2f, everything else with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
	t.values = append(t.values, cells)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	var sb strings.Builder
	for i, h := range t.Headers {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(pad(h, widths[i]))
	}
	fmt.Fprintln(w, sb.String())
	sb.Reset()
	for i := range t.Headers {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", widths[i]))
	}
	fmt.Fprintln(w, sb.String())
	for _, row := range t.rows {
		sb.Reset()
		for i, c := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			if i < len(widths) {
				sb.WriteString(pad(c, widths[i]))
			} else {
				sb.WriteString(c)
			}
		}
		fmt.Fprintln(w, sb.String())
	}
}

// CSV writes the table as comma-separated values (header row included).
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Headers, ","))
	for _, row := range t.rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

// Rows reports the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Cell returns the formatted cell at (row, col); it panics when out of
// range, which in tests is the right behavior.
func (t *Table) Cell(row, col int) string { return t.rows[row][col] }

// Value returns the value AddRow was given at (row, col), so a reader
// never has to parse a number back out of Cell's text.
func (t *Table) Value(row, col int) any { return t.values[row][col] }

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
