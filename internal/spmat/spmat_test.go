package spmat

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func small(t *testing.T) *SupTri {
	t.Helper()
	m, err := Generate(Params{N: 600, MeanSnode: 12, Fill: 1.0, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGenerateValidation(t *testing.T) {
	for _, p := range []Params{
		{N: 0, MeanSnode: 1, Fill: 1},
		{N: 10, MeanSnode: 0, Fill: 1},
		{N: 10, MeanSnode: 20, Fill: 1},
		{N: 10, MeanSnode: 2, Fill: 0},
		{N: 10, MeanSnode: 2, Fill: 9},
	} {
		if _, err := Generate(p); err == nil {
			t.Fatalf("params %+v should fail", p)
		}
	}
}

func TestPartitionCoversColumns(t *testing.T) {
	m := small(t)
	col := 0
	for _, sn := range m.Snodes {
		if sn.Begin != col {
			t.Fatalf("gap at column %d", col)
		}
		if sn.Size() < 1 {
			t.Fatal("empty supernode")
		}
		col = sn.End
	}
	if col != m.N {
		t.Fatalf("partition ends at %d, want %d", col, m.N)
	}
}

func TestDAGIsLowerTriangular(t *testing.T) {
	m := small(t)
	for j, deps := range m.Dependents {
		for _, i := range deps {
			if i <= j {
				t.Fatalf("dependent %d <= supernode %d", i, j)
			}
			if _, ok := m.Blocks[[2]int{i, j}]; !ok {
				t.Fatalf("missing block (%d,%d)", i, j)
			}
		}
	}
	// Parents is the exact transpose.
	edges := 0
	for i, ps := range m.Parents {
		for _, j := range ps {
			if j >= i {
				t.Fatalf("parent %d >= supernode %d", j, i)
			}
			found := false
			for _, d := range m.Dependents[j] {
				if d == i {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge (%d,%d) not mirrored", i, j)
			}
			edges++
		}
	}
	if edges != m.Edges() {
		t.Fatalf("Edges() = %d, counted %d", m.Edges(), edges)
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := small(t)
	b := small(t)
	if !reflect.DeepEqual(a.Parents, b.Parents) {
		t.Fatal("generation not deterministic: parents differ")
	}
	if !reflect.DeepEqual(a.Diag, b.Diag) {
		t.Fatal("generation not deterministic: diagonal blocks differ")
	}
	if !reflect.DeepEqual(a.Blocks, b.Blocks) {
		t.Fatal("generation not deterministic: off-diagonal block values differ")
	}
}

func TestSolveSerialCorrect(t *testing.T) {
	m := small(t)
	rng := rand.New(rand.NewSource(3))
	b := make([]float64, m.N)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, err := m.SolveSerial(b)
	if err != nil {
		t.Fatal(err)
	}
	if res := m.Residual(x, b); res > 1e-9 {
		t.Fatalf("residual = %g", res)
	}
}

func TestSolveSerialBadRHS(t *testing.T) {
	m := small(t)
	if _, err := m.SolveSerial(make([]float64, 3)); err == nil {
		t.Fatal("short rhs should fail")
	}
}

func TestUpdateVectorMatchesApplyUpdate(t *testing.T) {
	m := small(t)
	for j := range m.Dependents {
		for _, i := range m.Dependents[j] {
			sj := m.Snodes[j].Size()
			si := m.Snodes[i].Size()
			xj := make([]float64, sj)
			for k := range xj {
				xj[k] = float64(k + 1)
			}
			u := m.UpdateVector(i, j, xj)
			acc := make([]float64, si)
			m.ApplyUpdate(i, j, xj, acc)
			for k := range u {
				if math.Abs(acc[k]+u[k]) > 1e-12 {
					t.Fatalf("ApplyUpdate != -UpdateVector at (%d,%d)", i, j)
				}
			}
			return // one block is enough
		}
	}
}

func TestLevels(t *testing.T) {
	m := small(t)
	levels := m.Levels()
	seen := map[int]int{}
	for l, sns := range levels {
		for _, s := range sns {
			seen[s] = l
		}
	}
	if len(seen) != m.NumSupernodes() {
		t.Fatalf("levels cover %d of %d supernodes", len(seen), m.NumSupernodes())
	}
	// Every parent is on a strictly earlier level.
	for i, ps := range m.Parents {
		for _, p := range ps {
			if seen[p] >= seen[i] {
				t.Fatalf("parent %d (level %d) not before %d (level %d)", p, seen[p], i, seen[i])
			}
		}
	}
	// The stratified generator pins the DAG depth near the Depth
	// parameter (default supernodes/4), leaving width to scale on.
	k := m.NumSupernodes()
	if len(levels) < k/5 || len(levels) > k/2 {
		t.Fatalf("DAG depth %d out of expected band for %d supernodes", len(levels), k)
	}
}

func TestDepthParameterControlsLevels(t *testing.T) {
	m, err := Generate(Params{N: 2400, MeanSnode: 12, Fill: 1, Depth: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	got := len(m.Levels())
	if got < 35 || got > 45 {
		t.Fatalf("levels = %d, want ~40 (Depth parameter)", got)
	}
	// Width: some level must hold several concurrent supernodes.
	widest := 0
	for _, l := range m.Levels() {
		if len(l) > widest {
			widest = len(l)
		}
	}
	if widest < 3 {
		t.Fatalf("widest level = %d, want parallelism", widest)
	}
}

func TestMsgBytesInPaperRange(t *testing.T) {
	m, err := Generate(M3DC1Like)
	if err != nil {
		t.Fatal(err)
	}
	sizes := m.MsgBytes()
	if len(sizes) == 0 {
		t.Fatal("no messages")
	}
	var min, max, sum int64
	min = sizes[0]
	for _, s := range sizes {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
		sum += s
	}
	// Paper: 24 B to 1040 B, averaging ~100 words (800 B).
	if min < 8 || min > 64 {
		t.Errorf("min message = %d B, want near 24", min)
	}
	if max < 800 || max > 1200 {
		t.Errorf("max message = %d B, want near 1040", max)
	}
	mean := float64(sum) / float64(len(sizes))
	if mean < 200 || mean > 1000 {
		t.Errorf("mean message = %.0f B, want a few hundred", mean)
	}
}

func TestM3DC1LikeScale(t *testing.T) {
	m, err := Generate(M3DC1Like)
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 25200 {
		t.Fatalf("N = %d", m.N)
	}
	k := m.NumSupernodes()
	if k < 300 || k > 1200 {
		t.Fatalf("supernodes = %d", k)
	}
	if m.Edges() < k {
		t.Fatalf("edges = %d, want at least one per supernode", m.Edges())
	}
	if m.NNZ() < 1e5 {
		t.Fatalf("nnz = %d, suspiciously sparse", m.NNZ())
	}
}

func TestFlops(t *testing.T) {
	m := small(t)
	if m.FlopsSolve(0) != int64(m.Snodes[0].Size())*int64(m.Snodes[0].Size()) {
		t.Fatal("FlopsSolve wrong")
	}
	for j := range m.Dependents {
		for _, i := range m.Dependents[j] {
			want := 2 * int64(m.Snodes[i].Size()) * int64(m.Snodes[j].Size())
			if m.FlopsUpdate(i, j) != want {
				t.Fatal("FlopsUpdate wrong")
			}
			return
		}
	}
}
