// Package stats provides the small set of statistics and fitting
// utilities the experiment harness needs: percentiles and dense
// least-squares solving via normal equations (used to fit LogGP
// parameters from measured sweeps).
package stats

import (
	"errors"
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. It returns NaN for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 || p < 0 || p > 100 {
		return math.NaN()
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// ErrSingular is returned when a least-squares system has no unique
// solution.
var ErrSingular = errors.New("stats: singular system")

// LeastSquares solves min ||A·c - y||² for c, where A is given row by
// row (each row one observation, columns the regressors). It forms the
// normal equations AᵀA c = Aᵀy and solves by Gaussian elimination with
// partial pivoting, which is plenty for the tiny (<=4 parameter)
// systems this repository fits.
func LeastSquares(rows [][]float64, y []float64) ([]float64, error) {
	if len(rows) == 0 || len(rows) != len(y) {
		return nil, errors.New("stats: mismatched or empty observations")
	}
	k := len(rows[0])
	if k == 0 {
		return nil, errors.New("stats: zero regressors")
	}
	for _, r := range rows {
		if len(r) != k {
			return nil, errors.New("stats: ragged rows")
		}
	}
	// Normal equations.
	ata := make([][]float64, k)
	aty := make([]float64, k)
	for i := range ata {
		ata[i] = make([]float64, k)
	}
	for r, row := range rows {
		for i := 0; i < k; i++ {
			aty[i] += row[i] * y[r]
			for j := 0; j < k; j++ {
				ata[i][j] += row[i] * row[j]
			}
		}
	}
	return SolveLinear(ata, aty)
}

// SolveLinear solves the dense square system M·x = b by Gaussian
// elimination with partial pivoting. M and b are modified in place.
func SolveLinear(m [][]float64, b []float64) ([]float64, error) {
	n := len(m)
	if n == 0 || len(b) != n {
		return nil, errors.New("stats: bad system shape")
	}
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-300 {
			return nil, ErrSingular
		}
		m[col], m[piv] = m[piv], m[col]
		b[col], b[piv] = b[piv], b[col]
		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= m[r][c] * x[c]
		}
		x[r] = s / m[r][r]
	}
	return x, nil
}

// NonNegativeLeastSquares solves min ||A·c - y||² subject to c >= 0 by
// an active-set strategy specialized for the tiny systems here: it
// tries the unconstrained solution, and while any coefficient is
// negative, pins the most negative one to zero and re-solves on the
// remaining columns. Good enough for 2-4 parameter physical fits where
// negative values are non-physical noise.
func NonNegativeLeastSquares(rows [][]float64, y []float64) ([]float64, error) {
	if len(rows) == 0 {
		return nil, errors.New("stats: empty observations")
	}
	k := len(rows[0])
	active := make([]bool, k) // true = pinned to zero
	for iter := 0; iter <= k; iter++ {
		cols := make([]int, 0, k)
		for j := 0; j < k; j++ {
			if !active[j] {
				cols = append(cols, j)
			}
		}
		out := make([]float64, k)
		if len(cols) == 0 {
			return out, nil
		}
		sub := make([][]float64, len(rows))
		for i, r := range rows {
			sr := make([]float64, len(cols))
			for jj, j := range cols {
				sr[jj] = r[j]
			}
			sub[i] = sr
		}
		c, err := LeastSquares(sub, y)
		if err != nil {
			return nil, err
		}
		worst, worstVal := -1, 0.0
		for jj, j := range cols {
			out[j] = c[jj]
			if c[jj] < worstVal {
				worst, worstVal = j, c[jj]
			}
		}
		if worst == -1 {
			return out, nil
		}
		active[worst] = true
	}
	return nil, errors.New("stats: NNLS failed to converge")
}
