// Package report provides the measurement plumbing of the experiment
// harness: aligned text tables (the form in which every reproduced figure
// and table is emitted) and the expectations a scenario states about the
// values it put in them.
package report

import (
	"errors"
	"fmt"
	"strings"

	"github.com/switchware/activebridge/internal/netsim"
)

// Table is a reproduced figure or table: a title, a header row, data rows,
// and free-form notes (assumptions, substitutions, paper reference values).
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string

	// failed holds the unmet expectations. String never renders it, so an
	// expectation cannot move a fingerprint and a table whose run
	// disappointed still prints.
	failed []string
}

// AddRow appends a data row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends an explanatory note.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Expect states an invariant of the run on the measured value itself, at
// the point the scenario has it; an unmet one is recorded for Err.
func (t *Table) Expect(ok bool, format string, args ...interface{}) {
	if !ok {
		t.failed = append(t.failed, fmt.Sprintf(format, args...))
	}
}

// Err reports the unmet expectations, nil when every one held.
func (t *Table) Err() error {
	if t == nil || len(t.failed) == 0 {
		return nil
	}
	return errors.New(strings.Join(t.failed, "; "))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString("== ")
	sb.WriteString(t.Title)
	sb.WriteString(" ==\n")
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", pad))
		}
		sb.WriteString("\n")
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteString("\n")
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		sb.WriteString("note: ")
		sb.WriteString(n)
		sb.WriteString("\n")
	}
	return sb.String()
}

// Ms renders a duration as milliseconds with two decimals.
func Ms(d netsim.Duration) string { return fmt.Sprintf("%.2f", float64(d)/1e6) }

// Mbps renders a float megabit rate with one decimal.
func Mbps(v float64) string { return fmt.Sprintf("%.1f", v) }
