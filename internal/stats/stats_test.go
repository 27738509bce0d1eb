package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummary(t *testing.T) {
	if m := Median([]float64{5, 1, 4, 2, 3}); m != 3 {
		t.Fatalf("Median = %v", m)
	}
}

func TestEmptyInputs(t *testing.T) {
	if v := Median(nil); !math.IsNaN(v) {
		t.Errorf("Median(nil) = %v, want NaN", v)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if p := Percentile(xs, 0); p != 10 {
		t.Fatalf("P0 = %v", p)
	}
	if p := Percentile(xs, 100); p != 40 {
		t.Fatalf("P100 = %v", p)
	}
	if p := Percentile(xs, 50); p != 25 {
		t.Fatalf("P50 = %v", p)
	}
	if p := Percentile([]float64{7}, 99); p != 7 {
		t.Fatalf("single-element percentile = %v", p)
	}
	if !math.IsNaN(Percentile(xs, -1)) || !math.IsNaN(Percentile(xs, 101)) {
		t.Fatal("out-of-range p should give NaN")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestLeastSquaresRecovers(t *testing.T) {
	// t = 2*u + 3*v + 5*w exactly.
	rng := rand.New(rand.NewSource(7))
	var rows [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		u, v, w := rng.Float64(), rng.Float64(), rng.Float64()
		rows = append(rows, []float64{u, v, w})
		y = append(y, 2*u+3*v+5*w)
	}
	c, err := LeastSquares(rows, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, 5}
	for i := range want {
		if !almost(c[i], want[i], 1e-8) {
			t.Fatalf("c = %v, want %v", c, want)
		}
	}
}

func TestLeastSquaresSingular(t *testing.T) {
	rows := [][]float64{{1, 2}, {2, 4}, {3, 6}} // second column = 2x first
	if _, err := LeastSquares(rows, []float64{1, 2, 3}); err == nil {
		t.Fatal("expected singular-system error")
	}
}

func TestLeastSquaresBadShapes(t *testing.T) {
	if _, err := LeastSquares(nil, nil); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, err := LeastSquares([][]float64{{1}, {1, 2}}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
}

func TestSolveLinear(t *testing.T) {
	m := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := SolveLinear(m, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(x[0], 1, 1e-12) || !almost(x[1], 3, 1e-12) {
		t.Fatalf("x = %v, want [1 3]", x)
	}
}

func TestNonNegativeLeastSquares(t *testing.T) {
	// True model has a negative coefficient; NNLS must pin it at 0.
	rng := rand.New(rand.NewSource(11))
	var rows [][]float64
	var y []float64
	for i := 0; i < 60; i++ {
		u, v := rng.Float64(), rng.Float64()
		rows = append(rows, []float64{u, v})
		y = append(y, 4*u-0.5*v)
	}
	c, err := NonNegativeLeastSquares(rows, y)
	if err != nil {
		t.Fatal(err)
	}
	if c[1] != 0 {
		t.Fatalf("c[1] = %v, want pinned to 0", c[1])
	}
	if c[0] <= 0 {
		t.Fatalf("c[0] = %v, want positive", c[0])
	}
}

func TestNNLSMatchesLSWhenAllPositive(t *testing.T) {
	rows := [][]float64{{1, 0}, {0, 1}, {1, 1}}
	y := []float64{2, 3, 5}
	ls, _ := LeastSquares(rows, y)
	nnls, err := NonNegativeLeastSquares(rows, y)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ls {
		if !almost(ls[i], nnls[i], 1e-9) {
			t.Fatalf("NNLS %v != LS %v", nnls, ls)
		}
	}
}

func TestPercentileWithinRangeProperty(t *testing.T) {
	f := func(raw []float64, pRaw uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p := float64(pRaw % 101)
		v := Percentile(xs, p)
		return v >= slices.Min(xs) && v <= slices.Max(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
