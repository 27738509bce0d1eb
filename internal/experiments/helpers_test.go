package experiments

import (
	"strings"
	"testing"

	"msgroofline/internal/sim"
)

func TestStencilDims(t *testing.T) {
	cases := []struct{ p, px, py int }{
		{1, 1, 1}, {2, 2, 1}, {4, 2, 2}, {6, 3, 2}, {8, 4, 2},
		{16, 4, 4}, {32, 8, 4}, {42, 7, 6}, {64, 8, 8}, {128, 16, 8},
	}
	for _, c := range cases {
		px, py := stencilDims(c.p)
		if px != c.px || py != c.py {
			t.Errorf("stencilDims(%d) = %dx%d, want %dx%d", c.p, px, py, c.px, c.py)
		}
		if px*py != c.p {
			t.Errorf("stencilDims(%d) does not factor", c.p)
		}
	}
}

func TestFitGrid(t *testing.T) {
	cases := []struct{ grid, px, py, want int }{
		{16384, 2, 2, 16384},
		{16384, 3, 2, 16380},
		{2048, 3, 2, 2046},
		{16384, 7, 6, 16380},
		{5, 3, 2, 6}, // grid smaller than px*py clamps up
	}
	for _, c := range cases {
		got := fitGrid(c.grid, c.px, c.py)
		if got != c.want {
			t.Errorf("fitGrid(%d, %d, %d) = %d, want %d", c.grid, c.px, c.py, got, c.want)
		}
		if got%(c.px*c.py) != 0 {
			t.Errorf("fitGrid result %d not divisible by %d", got, c.px*c.py)
		}
	}
}

func TestSweepDims(t *testing.T) {
	nq, sq := sweepDims(Quick)
	nf, sf := sweepDims(Full)
	if len(nf) <= len(nq) || len(sf) <= len(sq) {
		t.Fatal("full scale should sweep more points than quick")
	}
	for _, n := range nq {
		if n < 1 {
			t.Fatal("non-positive msg/sync")
		}
	}
}

func TestMatrixForScales(t *testing.T) {
	q, qNote, err := matrixFor(Quick)
	if err != nil {
		t.Fatal(err)
	}
	f, fNote, err := matrixFor(Full)
	if err != nil {
		t.Fatal(err)
	}
	if f.N <= q.N {
		t.Fatal("full matrix should be larger")
	}
	if qNote == "" || fNote == "" {
		t.Fatal("scale notes must describe the substitution")
	}
}

func TestOutputRender(t *testing.T) {
	o := &Output{ID: "x", Title: "T", Text: "body\n", Notes: []string{"n1"}}
	r := o.Render()
	for _, want := range []string{"==== x: T ====", "body", "n1"} {
		if !contains(r, want) {
			t.Fatalf("render missing %q:\n%s", want, r)
		}
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// TestRidgelineOrderNote checks that the cross-check note claims the
// elapsed ordering matches the per-link latency ordering only when it
// does, and warns when the simulated times rank the fabrics the other
// way.
func TestRidgelineOrderNote(t *testing.T) {
	df := rlFabric{"dragonfly-1k", 105460 * sim.Nanosecond, 1700}
	ft := rlFabric{"fattree-1k", 106870 * sim.Nanosecond, 2400}
	if n := rlOrderNote([2]rlFabric{df, ft}); strings.Contains(n, "WARNING") || !strings.Contains(n, "matches the per-link latency ordering") {
		t.Errorf("agreeing orders: %q", n)
	}
	df.elapsed, ft.elapsed = ft.elapsed, df.elapsed
	n := rlOrderNote([2]rlFabric{df, ft})
	if !strings.Contains(n, "WARNING") || strings.Contains(n, "matches") {
		t.Errorf("flipped elapsed times: %q", n)
	}
	if !strings.Contains(n, "106.87 vs 105.46 us") || !strings.Contains(n, "1700 vs 2400 ns") {
		t.Errorf("warning does not name both orderings: %q", n)
	}
}
