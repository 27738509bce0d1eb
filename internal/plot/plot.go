// Package plot renders the paper's figures as terminal ASCII charts
// (log-log bandwidth vs. message size with ceilings and latency
// diagonals) and emits the underlying series as CSV for external
// plotting.
package plot

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Series is one named line/scatter on a chart.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// markers cycle across series in a chart.
var markers = []byte{'o', 'x', '+', '*', '#', '@', '%', '&', '^', '~'}

// Chart is an ASCII chart specification.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	XLog   bool
	YLog   bool
	Series []Series
}

// The plot area is width columns by height rows.
const (
	width  = 72
	height = 24
)

// Add appends a series.
func (c *Chart) Add(s Series) { c.Series = append(c.Series, s) }

// Render draws the chart.
func (c *Chart) Render() string {
	var b strings.Builder
	c.RenderTo(&b)
	return b.String()
}

// RenderTo draws the chart to w.
func (c *Chart) RenderTo(out io.Writer) {
	w, h := width, height
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	tx := func(v float64) float64 {
		if c.XLog {
			return math.Log10(v)
		}
		return v
	}
	ty := func(v float64) float64 {
		if c.YLog {
			return math.Log10(v)
		}
		return v
	}
	any := false
	for _, s := range c.Series {
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if c.XLog && x <= 0 || c.YLog && y <= 0 {
				continue
			}
			if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
				continue
			}
			any = true
			xmin, xmax = math.Min(xmin, tx(x)), math.Max(xmax, tx(x))
			ymin, ymax = math.Min(ymin, ty(y)), math.Max(ymax, ty(y))
		}
	}
	if c.Title != "" {
		fmt.Fprintf(out, "%s\n", c.Title)
	}
	if !any {
		fmt.Fprintln(out, "(no data)")
		return
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	for si, s := range c.Series {
		m := markers[si%len(markers)]
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if c.XLog && x <= 0 || c.YLog && y <= 0 {
				continue
			}
			if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
				continue
			}
			col := int((tx(x) - xmin) / (xmax - xmin) * float64(w-1))
			row := h - 1 - int((ty(y)-ymin)/(ymax-ymin)*float64(h-1))
			if col < 0 || col >= w || row < 0 || row >= h {
				continue
			}
			grid[row][col] = m
		}
	}
	yTicks := axisTicks(ymin, ymax, c.YLog)
	labelW := 10
	for r := 0; r < h; r++ {
		label := strings.Repeat(" ", labelW)
		frac := 1 - float64(r)/float64(h-1)
		v := ymin + frac*(ymax-ymin)
		for _, tick := range yTicks {
			tr := h - 1 - int((tick-ymin)/(ymax-ymin)*float64(h-1))
			if tr == r {
				tv := tick
				if c.YLog {
					tv = math.Pow(10, tick)
				}
				label = fmt.Sprintf("%*s", labelW, formatTick(tv))
				break
			}
		}
		_ = v
		fmt.Fprintf(out, "%s |%s\n", label, string(grid[r]))
	}
	fmt.Fprintf(out, "%s +%s\n", strings.Repeat(" ", labelW), strings.Repeat("-", w))
	// X tick labels on one line.
	xline := []byte(strings.Repeat(" ", w))
	for _, tick := range axisTicks(xmin, xmax, c.XLog) {
		col := int((tick - xmin) / (xmax - xmin) * float64(w-1))
		tv := tick
		if c.XLog {
			tv = math.Pow(10, tick)
		}
		s := formatTick(tv)
		for i := 0; i < len(s) && col+i < w; i++ {
			xline[col+i] = s[i]
		}
	}
	fmt.Fprintf(out, "%s  %s\n", strings.Repeat(" ", labelW), string(xline))
	if c.XLabel != "" || c.YLabel != "" {
		fmt.Fprintf(out, "%s  x: %s    y: %s\n", strings.Repeat(" ", labelW), c.XLabel, c.YLabel)
	}
	for si, s := range c.Series {
		fmt.Fprintf(out, "%s   %c %s\n", strings.Repeat(" ", labelW), markers[si%len(markers)], s.Name)
	}
}

// axisTicks picks tick positions in transformed space: integer decades
// for log axes, ~5 even steps for linear.
func axisTicks(lo, hi float64, logScale bool) []float64 {
	var ticks []float64
	if logScale {
		for d := math.Ceil(lo); d <= math.Floor(hi)+1e-9; d++ {
			ticks = append(ticks, d)
		}
		if len(ticks) > 8 {
			step := (len(ticks) + 7) / 8
			var thin []float64
			for i := 0; i < len(ticks); i += step {
				thin = append(thin, ticks[i])
			}
			ticks = thin
		}
		return ticks
	}
	for i := 0; i <= 4; i++ {
		ticks = append(ticks, lo+(hi-lo)*float64(i)/4)
	}
	return ticks
}

func formatTick(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1e9:
		return fmt.Sprintf("%.0fG", v/1e9)
	case av >= 1e6:
		return fmt.Sprintf("%.0fM", v/1e6)
	case av >= 1e3:
		return fmt.Sprintf("%.0fK", v/1e3)
	case av >= 1:
		return fmt.Sprintf("%.3g", v)
	case av == 0:
		return "0"
	default:
		return fmt.Sprintf("%.2g", v)
	}
}

// WriteCSV emits all series in long form: series,x,y.
func WriteCSV(w io.Writer, series []Series) error {
	if _, err := fmt.Fprintln(w, "series,x,y"); err != nil {
		return err
	}
	for _, s := range series {
		if len(s.X) != len(s.Y) {
			return fmt.Errorf("plot: series %q has %d x values but %d y values", s.Name, len(s.X), len(s.Y))
		}
		for i := range s.X {
			if _, err := fmt.Fprintf(w, "%s,%g,%g\n", csvEscape(s.Name), s.X[i], s.Y[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteCSVFile writes series to a new file at path. A failed write or
// close (the final flush to disk) is an error.
func WriteCSVFile(path string, series []Series) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = WriteCSV(f, series)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// SortedByX returns a copy of s with points ordered by X (line charts
// expect monotonic X).
func SortedByX(s Series) Series {
	type pt struct{ x, y float64 }
	pts := make([]pt, len(s.X))
	for i := range s.X {
		pts[i] = pt{s.X[i], s.Y[i]}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].x < pts[j].x })
	out := Series{Name: s.Name, X: make([]float64, len(pts)), Y: make([]float64, len(pts))}
	for i, p := range pts {
		out.X[i], out.Y[i] = p.x, p.y
	}
	return out
}
