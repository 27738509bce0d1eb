// Package spmat provides the sparse-matrix substrate for the SpTRSV
// workload: a synthetic supernodal lower-triangular factor generator
// standing in for the paper's SuperLU_DIST-factored M3D-C1 matrix
// (126K x 126K, 1e8 nonzeros after factorization), plus a reference
// serial solve, elimination-DAG queries, and message-size statistics.
//
// The generator reproduces the communication-relevant properties the
// paper reports rather than the exact numerics of a fusion matrix:
// supernode sizes that put solution-vector messages in the 24 B to
// 1040 B range (3 to 130 doubles), a block sparsity pattern that is
// dense near the diagonal and thins with distance (typical of
// fill-reducing orderings), and one message per dependency edge.
package spmat

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Snode is one supernode: a contiguous column range [Begin, End).
type Snode struct {
	Begin, End int
}

// Size returns the number of columns in the supernode.
func (s Snode) Size() int { return s.End - s.Begin }

// SupTri is a supernodal lower-triangular factor L with unit-free
// dense diagonal blocks and dense off-diagonal blocks at the nonzero
// positions of the supernodal DAG.
type SupTri struct {
	// N is the matrix dimension.
	N int
	// Snodes partitions the columns.
	Snodes []Snode
	// Dependents[j] lists supernodes i > j with a nonzero block
	// (i, j): solving j produces one message to each.
	Dependents [][]int
	// Parents[i] lists supernodes j < i that i depends on (the
	// transpose of Dependents): i needs one contribution from each.
	Parents [][]int
	// Diag[j] is the dense lower-triangular diagonal block of
	// supernode j, row-major (size s_j x s_j; upper entries zero).
	Diag [][]float64
	// Blocks[(i,j)] is the dense off-diagonal block, row-major with
	// s_i rows and s_j columns.
	Blocks map[[2]int][]float64
}

// Params controls the synthetic generator.
type Params struct {
	// N is the matrix dimension (paper: 126000).
	N int
	// MeanSnode is the average supernode size; sizes vary in
	// [1, 2*MeanSnode-1]. Messages carry s_i doubles, so the paper's
	// 24-1040 B range corresponds to sizes 3..130.
	MeanSnode int
	// Fill in (0, 4] scales how many off-diagonal blocks exist; the
	// expected number of parents of supernode i grows like
	// Fill * log2(i).
	Fill float64
	// Depth is the target elimination-DAG depth (number of level
	// sets). Supernodes are stratified into Depth levels with
	// parents drawn from earlier levels, giving the DAG the
	// width/depth shape of a fill-reduced factorization: width =
	// supernodes/Depth supernodes can solve concurrently. Zero
	// defaults to supernodes/4.
	Depth int
	// Seed makes generation reproducible.
	Seed int64
}

// M3DC1Like are generator parameters shaped after the paper's matrix:
// message sizes 24-1040 bytes averaging ~100 words, a deep elimination
// DAG, and a dimension scaled down 5x so a solve simulates in seconds
// (the paper's communication pattern is preserved; see EXPERIMENTS.md
// for the substitution note).
var M3DC1Like = Params{
	N:         25200,
	MeanSnode: 60,
	Fill:      1.6,
	Depth:     110,
	Seed:      20230901,
}

// Generate builds a synthetic factor.
func Generate(p Params) (*SupTri, error) {
	if p.N < 1 {
		return nil, fmt.Errorf("spmat: N must be positive, got %d", p.N)
	}
	if p.MeanSnode < 1 || p.MeanSnode > p.N {
		return nil, fmt.Errorf("spmat: MeanSnode %d out of range", p.MeanSnode)
	}
	if p.Fill <= 0 || p.Fill > 4 {
		return nil, fmt.Errorf("spmat: Fill %v out of (0, 4]", p.Fill)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	m := &SupTri{N: p.N, Blocks: make(map[[2]int][]float64)}

	// Partition columns into supernodes with sizes in
	// [max(1, mean/20), 2*mean] so message sizes span the paper's
	// 3..130-double range.
	lo := p.MeanSnode / 20
	if lo < 1 {
		lo = 1
	}
	hi := 2 * p.MeanSnode
	for col := 0; col < p.N; {
		s := lo + rng.Intn(hi-lo+1)
		if col+s > p.N {
			s = p.N - col
		}
		m.Snodes = append(m.Snodes, Snode{Begin: col, End: col + s})
		col += s
	}
	k := len(m.Snodes)
	m.Dependents = make([][]int, k)
	m.Parents = make([][]int, k)

	// Diagonal blocks: well-conditioned dense lower triangles.
	m.Diag = make([][]float64, k)
	for j, sn := range m.Snodes {
		s := sn.Size()
		d := make([]float64, s*s)
		for r := 0; r < s; r++ {
			for c := 0; c <= r; c++ {
				if r == c {
					d[r*s+c] = 2 + rng.Float64() // dominant diagonal
				} else {
					d[r*s+c] = 0.5 * (rng.Float64() - 0.5) / float64(s)
				}
			}
		}
		m.Diag[j] = d
	}

	// Off-diagonal pattern: supernodes are stratified into `depth`
	// levels by index (leaves first, root last, as an elimination
	// forest orders them). Each supernode depends on at least one
	// supernode of the previous level — fixing the critical path at
	// ~depth — plus Fill*log2(i) further parents drawn from earlier
	// levels with elimination-tree locality. Everything inside one
	// level is independent, giving the solver width to scale on.
	depth := p.Depth
	if depth <= 0 {
		depth = k / 4
	}
	if depth < 1 {
		depth = 1
	}
	if depth > k {
		depth = k
	}
	levelOf := func(i int) int { return i * depth / k }
	// firstAt[l] is the smallest supernode index on level l.
	firstAt := make([]int, depth+1)
	for l := range firstAt {
		firstAt[l] = (l*k + depth - 1) / depth
	}
	for i := 1; i < k; i++ {
		lvl := levelOf(i)
		if lvl == 0 {
			continue // level-0 supernodes are roots (etree leaves)
		}
		limit := firstAt[lvl] // parents come strictly from [0, limit)
		want := int(p.Fill*math.Log2(float64(i+2)) + 0.5)
		if want < 1 {
			want = 1
		}
		if want > limit {
			want = limit
		}
		seen := map[int]bool{}
		// Anchor on the previous level so the critical path spans
		// every level.
		lo := firstAt[lvl-1]
		seen[lo+rng.Intn(limit-lo)] = true
		for tries := 0; len(seen) < want; tries++ {
			// Geometric-ish preference for recent earlier levels:
			// back is log-uniform in [1, limit], so j covers the
			// whole range with bias toward limit-1.
			back := int(math.Exp(rng.Float64() * math.Log(float64(limit)+0.5)))
			j := limit - back
			if j < 0 || tries > 16*want {
				j = rng.Intn(limit) // uniform fallback
			}
			seen[j] = true
		}
		// Draw the block values in ascending j: map order would hand
		// each block different draws from run to run. Parents and
		// Dependents come out sorted, since j ascends here and i
		// ascends across supernodes.
		js := make([]int, 0, len(seen))
		for j := range seen {
			js = append(js, j)
		}
		slices.Sort(js)
		for _, j := range js {
			m.Parents[i] = append(m.Parents[i], j)
			m.Dependents[j] = append(m.Dependents[j], i)
			si, sj := m.Snodes[i].Size(), m.Snodes[j].Size()
			blk := make([]float64, si*sj)
			for x := range blk {
				blk[x] = (rng.Float64() - 0.5) / float64(sj*4)
			}
			m.Blocks[[2]int{i, j}] = blk
		}
	}
	return m, nil
}

// NumSupernodes returns the supernode count.
func (m *SupTri) NumSupernodes() int { return len(m.Snodes) }

// NNZ returns the number of stored nonzeros (dense block entries plus
// diagonal lower-triangle entries).
func (m *SupTri) NNZ() int64 {
	var nnz int64
	for _, sn := range m.Snodes {
		s := int64(sn.Size())
		nnz += s * (s + 1) / 2
	}
	for key, blk := range m.Blocks {
		_ = key
		nnz += int64(len(blk))
	}
	return nnz
}

// Edges returns the number of DAG edges (= messages per solve).
func (m *SupTri) Edges() int {
	n := 0
	for _, d := range m.Dependents {
		n += len(d)
	}
	return n
}

// MsgBytes returns the distribution of per-edge message sizes in
// bytes: a contribution to supernode i carries s_i doubles.
func (m *SupTri) MsgBytes() []int64 {
	var out []int64
	for j := range m.Dependents {
		for _, i := range m.Dependents[j] {
			out = append(out, int64(8*m.Snodes[i].Size()))
		}
	}
	return out
}

// Levels returns the level sets of the elimination DAG: level 0 holds
// supernodes with no parents, level k those whose longest parent
// chain has length k. GPU runs schedule one level per wave.
func (m *SupTri) Levels() [][]int {
	k := len(m.Snodes)
	lvl := make([]int, k)
	maxLvl := 0
	for i := 0; i < k; i++ {
		for _, p := range m.Parents[i] {
			if lvl[p]+1 > lvl[i] {
				lvl[i] = lvl[p] + 1
			}
		}
		if lvl[i] > maxLvl {
			maxLvl = lvl[i]
		}
	}
	out := make([][]int, maxLvl+1)
	for i, l := range lvl {
		out[l] = append(out[l], i)
	}
	return out
}

// SolveSerial computes x with L x = b by supernodal forward
// substitution, the reference against which distributed solves are
// verified.
func (m *SupTri) SolveSerial(b []float64) ([]float64, error) {
	if len(b) != m.N {
		return nil, fmt.Errorf("spmat: rhs length %d != N %d", len(b), m.N)
	}
	x := make([]float64, m.N)
	copy(x, b)
	for j, sn := range m.Snodes {
		s := sn.Size()
		// x_j = Diag_j^{-1} x_j (forward substitution on the dense
		// lower-triangular diagonal block).
		d := m.Diag[j]
		seg := x[sn.Begin:sn.End]
		for r := 0; r < s; r++ {
			sum := seg[r]
			for c := 0; c < r; c++ {
				sum -= d[r*s+c] * seg[c]
			}
			seg[r] = sum / d[r*s+r]
		}
		// Update dependents: x_i -= L_ij * x_j.
		for _, i := range m.Dependents[j] {
			m.ApplyUpdate(i, j, seg, x[m.Snodes[i].Begin:m.Snodes[i].End])
		}
	}
	return x, nil
}

// SolveDiag solves the dense diagonal block of supernode j in place on
// seg (length s_j): seg <- Diag_j^{-1} seg.
func (m *SupTri) SolveDiag(j int, seg []float64) {
	s := m.Snodes[j].Size()
	d := m.Diag[j]
	for r := 0; r < s; r++ {
		sum := seg[r]
		for c := 0; c < r; c++ {
			sum -= d[r*s+c] * seg[c]
		}
		seg[r] = sum / d[r*s+r]
	}
}

// ApplyUpdate subtracts L_ij * xj from acc (length s_i), the
// contribution a solved supernode j sends toward supernode i.
func (m *SupTri) ApplyUpdate(i, j int, xj, acc []float64) {
	blk := m.Blocks[[2]int{i, j}]
	si := m.Snodes[i].Size()
	sj := m.Snodes[j].Size()
	for r := 0; r < si; r++ {
		sum := 0.0
		row := blk[r*sj : (r+1)*sj]
		for c := 0; c < sj; c++ {
			sum += row[c] * xj[c]
		}
		acc[r] -= sum
	}
}

// UpdateVector computes the contribution message L_ij * xj (length
// s_i) without applying it — this is the payload a distributed solve
// transmits.
func (m *SupTri) UpdateVector(i, j int, xj []float64) []float64 {
	si := m.Snodes[i].Size()
	sj := m.Snodes[j].Size()
	blk := m.Blocks[[2]int{i, j}]
	out := make([]float64, si)
	for r := 0; r < si; r++ {
		sum := 0.0
		row := blk[r*sj : (r+1)*sj]
		for c := 0; c < sj; c++ {
			sum += row[c] * xj[c]
		}
		out[r] = sum
	}
	return out
}

// Residual returns max_i |(L x - b)_i| for a verification check.
func (m *SupTri) Residual(x, b []float64) float64 {
	r := make([]float64, m.N)
	// r = L x
	for j, sn := range m.Snodes {
		s := sn.Size()
		d := m.Diag[j]
		for row := 0; row < s; row++ {
			sum := 0.0
			for c := 0; c <= row; c++ {
				sum += d[row*s+c] * x[sn.Begin+c]
			}
			r[sn.Begin+row] += sum
		}
		for _, i := range m.Dependents[j] {
			u := m.UpdateVector(i, j, x[sn.Begin:sn.End])
			for row, v := range u {
				r[m.Snodes[i].Begin+row] += v
			}
		}
	}
	worst := 0.0
	for i := range r {
		if d := math.Abs(r[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// FlopsSolve returns the floating-point work of solving supernode j's
// diagonal block (s^2 flops).
func (m *SupTri) FlopsSolve(j int) int64 {
	s := int64(m.Snodes[j].Size())
	return s * s
}

// FlopsUpdate returns the work of one (i, j) update (2*s_i*s_j flops).
func (m *SupTri) FlopsUpdate(i, j int) int64 {
	return 2 * int64(m.Snodes[i].Size()) * int64(m.Snodes[j].Size())
}
