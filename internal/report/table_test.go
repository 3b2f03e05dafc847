package report

import (
	"strings"
	"testing"

	"github.com/switchware/activebridge/internal/netsim"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:  "demo",
		Header: []string{"col1", "longer-column"},
	}
	tbl.AddRow("a", "b")
	tbl.AddRow("longer-value", "x")
	tbl.AddNote("a note with %d placeholders", 1)
	s := tbl.String()
	if !strings.Contains(s, "== demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(s, "note: a note with 1 placeholders") {
		t.Error("missing note")
	}
	lines := strings.Split(s, "\n")
	// Header and data lines should align: the second column starts at the
	// same offset in each.
	var hdr, row string
	for _, ln := range lines {
		if strings.HasPrefix(ln, "col1") {
			hdr = ln
		}
		if strings.HasPrefix(ln, "longer-value") {
			row = ln
		}
	}
	if hdr == "" || row == "" {
		t.Fatalf("rows missing in output:\n%s", s)
	}
	if strings.Index(hdr, "longer-column") != strings.Index(row, "x") {
		t.Errorf("columns not aligned:\n%s", s)
	}
}

func TestFormatters(t *testing.T) {
	if Ms(1500*netsim.Microsecond) != "1.50" {
		t.Errorf("Ms = %s", Ms(1500*netsim.Microsecond))
	}
	if Mbps(16.04) != "16.0" {
		t.Errorf("Mbps = %s", Mbps(16.04))
	}
}

func TestExpectIsUnrendered(t *testing.T) {
	tbl := &Table{Title: "demo", Header: []string{"k", "v"}}
	tbl.AddRow("rtt", "1.50")
	clean := tbl.String()
	tbl.Expect(true, "held")
	if err := tbl.Err(); err != nil {
		t.Fatalf("Err with every expectation held = %v", err)
	}
	tbl.Expect(false, "rtt %d ms too slow", 7)
	tbl.Expect(false, "second")
	err := tbl.Err()
	if err == nil || !strings.Contains(err.Error(), "rtt 7 ms too slow") || !strings.Contains(err.Error(), "second") {
		t.Fatalf("Err = %v, want both unmet expectations named", err)
	}
	if tbl.String() != clean {
		t.Errorf("an unmet expectation changed the rendered table:\n%s", tbl)
	}
}
