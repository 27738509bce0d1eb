package plot

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRenderBasicChart(t *testing.T) {
	c := Chart{
		Title: "Fig X", XLabel: "message size", YLabel: "GB/s",
		XLog: true, YLog: true,
	}
	var x, y []float64
	for b := 8.0; b <= 1<<20; b *= 4 {
		x = append(x, b)
		y = append(y, b/(b/25e9+5e-6)/1e9)
	}
	c.Add(Series{Name: "two-sided", X: x, Y: y})
	out := c.Render()
	if !strings.Contains(out, "Fig X") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "two-sided") {
		t.Fatal("missing legend")
	}
	if !strings.Contains(out, "o") {
		t.Fatal("missing markers")
	}
	if !strings.Contains(out, "x: message size") {
		t.Fatal("missing axis labels")
	}
}

func TestRenderEmpty(t *testing.T) {
	c := Chart{Title: "empty"}
	if out := c.Render(); !strings.Contains(out, "(no data)") {
		t.Fatalf("empty chart output: %q", out)
	}
}

func TestRenderSkipsNonPositiveOnLogAxes(t *testing.T) {
	c := Chart{XLog: true, YLog: true}
	c.Add(Series{Name: "s", X: []float64{0, -5, 10, math.NaN()}, Y: []float64{1, 1, 100, 1}})
	out := c.Render()
	if out == "" || strings.Contains(out, "(no data)") {
		t.Fatalf("valid point should render: %q", out)
	}
}

func TestMultipleSeriesDistinctMarkers(t *testing.T) {
	var c Chart
	c.Add(Series{Name: "a", X: []float64{1, 2, 3}, Y: []float64{1, 2, 3}})
	c.Add(Series{Name: "b", X: []float64{1, 2, 3}, Y: []float64{3, 2, 1}})
	out := c.Render()
	if !strings.Contains(out, "o a") || !strings.Contains(out, "x b") {
		t.Fatalf("legend markers missing:\n%s", out)
	}
}

func TestWriteCSV(t *testing.T) {
	var b bytes.Buffer
	err := WriteCSV(&b, []Series{
		{Name: "plain", X: []float64{1, 2}, Y: []float64{3, 4}},
		{Name: `with,comma "q"`, X: []float64{5}, Y: []float64{6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "series,x,y\n") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "plain,1,3") {
		t.Fatalf("missing row: %q", out)
	}
	if !strings.Contains(out, `"with,comma ""q""",5,6`) {
		t.Fatalf("bad escaping: %q", out)
	}
}

func TestWriteCSVMismatched(t *testing.T) {
	var b bytes.Buffer
	if err := WriteCSV(&b, []Series{{Name: "bad", X: []float64{1}, Y: nil}}); err == nil {
		t.Fatal("expected error for mismatched series")
	}
}

func TestWriteCSVFile(t *testing.T) {
	ser := []Series{{Name: "s", X: []float64{1}, Y: []float64{2}}}
	path := filepath.Join(t.TempDir(), "s.csv")
	if err := WriteCSVFile(path, ser); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "series,x,y\ns,1,2\n" {
		t.Fatalf("file = %q", got)
	}
	if err := WriteCSVFile(filepath.Join(path, "x.csv"), ser); err == nil {
		t.Fatal("creating a file under a regular file should fail")
	}
	if _, err := os.Stat("/dev/full"); err == nil {
		if err := WriteCSVFile("/dev/full", ser); err == nil {
			t.Fatal("a write to a full device should fail")
		}
	}
}

func TestSortedByX(t *testing.T) {
	s := SortedByX(Series{Name: "s", X: []float64{3, 1, 2}, Y: []float64{30, 10, 20}})
	for i, want := range []float64{1, 2, 3} {
		if s.X[i] != want || s.Y[i] != want*10 {
			t.Fatalf("sorted = %+v", s)
		}
	}
}

func TestAxisTicksLog(t *testing.T) {
	ticks := axisTicks(0.1, 6.2, true) // decades 1..6
	if len(ticks) == 0 {
		t.Fatal("no ticks")
	}
	for _, tk := range ticks {
		if tk != math.Floor(tk) {
			t.Fatalf("log tick %v not an integer decade", tk)
		}
	}
}
