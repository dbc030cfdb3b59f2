// Package tables renders aligned plain-text tables for the experiment
// harness — the medium in which this reproduction reports the paper's
// tables and figures.
package tables

import (
	"fmt"
	"strings"
)

// Table accumulates rows under a header and renders them with aligned
// columns.
type Table struct {
	headers []string
	rows    [][]string
}

// New creates a table with the given column headers.
func New(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends a row. Rows shorter than the header are padded; longer
// rows extend the column count.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	cols := len(t.headers)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.headers)
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			// Left-align the first column (labels), right-align the rest
			// (numbers).
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			} else {
				fmt.Fprintf(&b, "%*s", widths[i], cell)
			}
		}
		b.WriteString("\n")
	}
	if len(t.headers) > 0 {
		writeRow(t.headers)
		total := 0
		for _, w := range widths {
			total += w + 2
		}
		b.WriteString(strings.Repeat("-", total-2))
		b.WriteString("\n")
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
