package table

import (
	"strings"
	"testing"
)

func TestRenderAlignment(t *testing.T) {
	tb := New("Machines", "Name", "GB/s")
	tb.AddRow("perlmutter", "32")
	tb.AddRow("x", "100")
	out := tb.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Machines" {
		t.Fatalf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "Name") {
		t.Fatalf("header = %q", lines[1])
	}
	if !strings.Contains(lines[2], "----") {
		t.Fatalf("separator = %q", lines[2])
	}
	// All data rows align: the GB/s column starts at the same offset.
	idx1 := strings.Index(lines[3], "32")
	idx2 := strings.Index(lines[4], "100")
	if idx1 != idx2 {
		t.Fatalf("misaligned columns: %d vs %d\n%s", idx1, idx2, out)
	}
}

func TestShortAndLongRows(t *testing.T) {
	tb := New("", "A", "B")
	tb.AddRow("only-a")
	tb.AddRow("a", "b", "ignored-extra")
	out := tb.Render()
	if strings.Contains(out, "ignored-extra") {
		t.Fatal("extra cells should be dropped")
	}
	if !strings.Contains(out, "only-a") {
		t.Fatal("short row missing")
	}
}
