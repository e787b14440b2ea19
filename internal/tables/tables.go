// Package tables renders paper-style ASCII tables with aligned
// columns for the experiment harness and command-line tools.
package tables

import (
	"fmt"
	"strings"

	"pbsim/internal/stats"
)

// Table accumulates rows of string cells and renders them with
// per-column alignment.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
	// RightAlign marks columns rendered flush right (numeric columns).
	RightAlign map[int]bool
}

// New creates a table with the given title and column headers.
func New(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers, RightAlign: map[int]bool{}}
}

// AlignRight marks the given column indices as right-aligned.
func (t *Table) AlignRight(cols ...int) *Table {
	for _, c := range cols {
		t.RightAlign[c] = true
	}
	return t
}

// AddRow appends a row of cells; values are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// FormatFloat renders floats compactly: integers without a decimal
// point, otherwise one decimal place.
func FormatFloat(v float64) string {
	if stats.ApproxEqual(v, float64(int64(v)), 0) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.1f", v)
}

// FormatInterval renders a point estimate with its confidence
// interval as "0.943 [0.901, 0.972]", the cell format of the
// methodology trust tables (Table A): three decimals keep recall and
// correlation scores readable without implying more precision than a
// few hundred sampled surfaces support.
func FormatInterval(mean, lo, hi float64) string {
	return fmt.Sprintf("%.3f [%.3f, %.3f]", mean, lo, hi)
}

// String renders the table.
func (t *Table) String() string {
	cols := len(t.Headers)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			pad := widths[i] - len(cell)
			if t.RightAlign[i] {
				b.WriteString(strings.Repeat(" ", pad))
				b.WriteString(cell)
			} else {
				b.WriteString(cell)
				if i < cols-1 {
					b.WriteString(strings.Repeat(" ", pad))
				}
			}
		}
		b.WriteByte('\n')
	}
	if len(t.Headers) > 0 {
		writeRow(t.Headers)
		total := 0
		for i, w := range widths {
			if i > 0 {
				total += 2
			}
			total += w
		}
		b.WriteString(strings.Repeat("-", total))
		b.WriteByte('\n')
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
