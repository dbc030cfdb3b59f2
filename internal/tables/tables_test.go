package tables

import (
	"strings"
	"testing"
)

func TestEmptyTable(t *testing.T) {
	tab := New("A", "B")
	out := tab.String()
	if !strings.Contains(out, "A") || !strings.Contains(out, "B") {
		t.Errorf("headers missing: %q", out)
	}
}

func TestAlignment(t *testing.T) {
	tab := New("name", "value")
	tab.AddRow("x", "1")
	tab.AddRow("longer", "123456")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, rule, two rows
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
	// All lines should be equally wide (alignment).
	w := len(lines[2])
	if len(lines[3]) != w {
		t.Errorf("rows not aligned: %d vs %d\n%s", len(lines[2]), len(lines[3]), out)
	}
	// First column left-aligned: "x" at position 0.
	if !strings.HasPrefix(lines[2], "x ") {
		t.Errorf("first column not left-aligned: %q", lines[2])
	}
	// Numbers right-aligned: "1" should end both data rows at same column.
	if !strings.HasSuffix(lines[2], "1") || !strings.HasSuffix(lines[3], "6") {
		t.Errorf("value column not right-aligned:\n%s", out)
	}
}

func TestShortAndLongRows(t *testing.T) {
	tab := New("a", "b")
	tab.AddRow("only")
	tab.AddRow("x", "y", "z") // extends column count
	out := tab.String()
	if !strings.Contains(out, "z") {
		t.Errorf("extra column dropped: %q", out)
	}
}

func TestHeaderRule(t *testing.T) {
	tab := New("h")
	tab.AddRow("v")
	out := tab.String()
	if !strings.Contains(out, "-") {
		t.Errorf("missing header rule: %q", out)
	}
}
