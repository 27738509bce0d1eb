package ridgeline

import (
	"testing"
	"testing/quick"

	"msgroofline/internal/machine"
)

func TestBoundPicksMinimum(t *testing.T) {
	s := Surface{Name: "t", PeakFlops: 1e12, MemBW: 1e11, NetBW: 1e9}
	// ai=1, ci=1: net 1e9 < mem 1e11 < peak 1e12.
	if p, c := s.Bound(1, 1); p != 1e9 || c != NetworkBound {
		t.Fatalf("Bound(1,1) = %v, %v", p, c)
	}
	// High ci frees the network; ai=1 leaves memory binding.
	if p, c := s.Bound(1, 1e4); p != 1e11 || c != MemoryBound {
		t.Fatalf("Bound(1,1e4) = %v, %v", p, c)
	}
	// Both intensities high: compute ceiling.
	if p, c := s.Bound(1e3, 1e4); p != 1e12 || c != ComputeBound {
		t.Fatalf("Bound(1e3,1e4) = %v, %v", p, c)
	}
	if s.Classify(1, 1) != NetworkBound {
		t.Fatal("Classify disagrees with Bound")
	}
}

func TestBoundTieOrder(t *testing.T) {
	// All three ceilings coincide at ai=ci=1: network reports first,
	// then memory wins over compute.
	s := Surface{PeakFlops: 1e9, MemBW: 1e9, NetBW: 1e9}
	if _, c := s.Bound(1, 1); c != NetworkBound {
		t.Fatalf("three-way tie class = %v, want network", c)
	}
	s.NetBW = 1e12
	if _, c := s.Bound(1, 1); c != MemoryBound {
		t.Fatalf("mem/compute tie class = %v, want memory", c)
	}
}

func TestNetworkCrossoverCI(t *testing.T) {
	s := Surface{PeakFlops: 1e12, MemBW: 1e11, NetBW: 1e9}
	ai := 2.0
	ci := s.NetworkCrossoverCI(ai) // 2e11/1e9 = 200
	if ci != 200 {
		t.Fatalf("crossover = %v, want 200", ci)
	}
	if _, c := s.Bound(ai, ci*0.99); c != NetworkBound {
		t.Fatal("just below crossover must be network-bound")
	}
	if _, c := s.Bound(ai, ci*1.01); c == NetworkBound {
		t.Fatal("just above crossover must not be network-bound")
	}
}

// Property: the bound is nondecreasing in both intensities and never
// exceeds any ceiling.
func TestPerfMonotoneProperty(t *testing.T) {
	s := Surface{PeakFlops: 5e11, MemBW: 8e10, NetBW: 2e9}
	f := func(a, b, c, d uint16) bool {
		ai1, ci1 := float64(a)+1, float64(b)+1
		ai2, ci2 := ai1+float64(c), ci1+float64(d)
		p1, _ := s.Bound(ai1, ci1)
		p2, _ := s.Bound(ai2, ci2)
		return p1 <= p2 && p2 <= s.PeakFlops &&
			p1 <= ai1*s.MemBW && p1 <= ci1*s.NetBW
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNetBWPerRankDerates(t *testing.T) {
	cfg, err := machine.Get("dragonfly-1k")
	if err != nil {
		t.Fatal(err)
	}
	tp, ok := cfg.Params(machine.OneSided)
	if !ok {
		t.Fatal("dragonfly-1k must offer one-sided")
	}
	m, err := cfg.Topology.Dragonfly.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	// The tapered global tier must bind below the per-rank NIC share.
	if m.UniformGBsPerRank >= m.InjectionGBs/4 {
		t.Fatalf("dragonfly-1k should taper: uniform %v vs injection share %v",
			m.UniformGBsPerRank, m.InjectionGBs/4)
	}
	big := NetBWPerRank(tp, m, 1<<20)
	small := NetBWPerRank(tp, m, 64)
	if big <= small {
		t.Fatalf("large messages should sustain more bandwidth: %v vs %v", big, small)
	}
	// Large messages saturate to exactly the topology share.
	if want := m.UniformGBsPerRank * 1e9; big != want {
		t.Fatalf("saturated NetBW = %v, want topology share %v", big, want)
	}
	// Small messages are op-overhead-limited, well under the share.
	if small >= big/2 {
		t.Fatalf("64B NetBW = %v should be overhead-limited (saturated %v)", small, big)
	}
}

func TestFatTreeVsDragonflyCeilings(t *testing.T) {
	// Same rank count: the full-bisection fat-tree must offer a higher
	// per-rank network ceiling than the tapered dragonfly.
	df := machine.DragonflyForRanks(10000)
	ft := machine.FatTreeForRanks(10000)
	dm, err := df.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	fm, err := ft.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := machine.Get("dragonfly-1k")
	tp, _ := cfg.Params(machine.OneSided)
	const msg = 64 << 10
	if dfBW, ftBW := NetBWPerRank(tp, dm, msg), NetBWPerRank(tp, fm, msg); dfBW >= ftBW {
		t.Fatalf("dragonfly %v should sit below fat-tree %v at 10K ranks", dfBW, ftBW)
	}
	// A surface built from each: the same kernel can change class.
	sDf := SurfaceFor("df", tp, dm, msg, 5e11, 8e10)
	sFt := SurfaceFor("ft", tp, fm, msg, 5e11, 8e10)
	if err := sDf.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := sFt.Validate(); err != nil {
		t.Fatal(err)
	}
	if sDf.NetworkCrossoverCI(1) <= sFt.NetworkCrossoverCI(1) {
		t.Fatal("tapered dragonfly must stay network-bound to higher ci than fat-tree")
	}
}

func TestSurfaceValidate(t *testing.T) {
	if err := (Surface{PeakFlops: 1, MemBW: 1, NetBW: 0}).Validate(); err == nil {
		t.Fatal("zero NetBW must fail validation")
	}
	if err := (Surface{PeakFlops: 1, MemBW: 1, NetBW: 1}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestClassString(t *testing.T) {
	if NetworkBound.String() != "network" || MemoryBound.String() != "memory" || ComputeBound.String() != "compute" {
		t.Fatal("Class.String broken")
	}
}
