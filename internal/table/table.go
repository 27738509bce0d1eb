// Package table renders aligned plain-text tables for the experiment
// harness (Table I, Table II, and per-figure result listings).
package table

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple header + rows text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// New creates a table with the given title and column headers.
func New(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; short rows are padded, long rows truncated to
// the header width.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render returns the formatted table.
func (t *Table) Render() string {
	var b strings.Builder
	t.RenderTo(&b)
	return b.String()
}

// RenderTo writes the formatted table to w.
func (t *Table) RenderTo(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.Headers)
	seps := make([]string, len(t.Headers))
	for i, wd := range widths {
		seps[i] = strings.Repeat("-", wd)
	}
	line(seps)
	for _, row := range t.Rows {
		line(row)
	}
}
