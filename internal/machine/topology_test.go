package machine

import (
	"fmt"
	"testing"
)

// Topology validation runs inside Build, the one path every spec takes
// to netsim: a spec must set exactly one generator and name a known
// routing policy.
func TestTopologyValidateExactlyOne(t *testing.T) {
	if _, _, err := (&Topology{}).Build(8); err == nil {
		t.Fatal("empty topology must fail")
	}
	two := Topology{
		Dragonfly: &dragonfly1K,
		FatTree:   &fatTree1K,
	}
	if _, _, err := two.Build(8); err == nil {
		t.Fatal("two generators must fail")
	}
	for _, routing := range []string{"ecmp", "adaptve"} {
		bad := Topology{Dragonfly: &dragonfly1K, Routing: routing}
		if _, _, err := bad.Build(8); err == nil {
			t.Fatalf("unknown routing %q must fail", routing)
		}
	}
	if _, _, err := (&Topology{Dragonfly: &dragonfly1K, Routing: RoutingAdaptive}).Build(8); err != nil {
		t.Fatal(err)
	}
}

func TestTopologyValidateBadSpecs(t *testing.T) {
	cases := []Topology{
		{Dragonfly: &Dragonfly{Groups: 1, RoutersPerGroup: 2, NodesPerRouter: 1, GlobalLinksPerRouter: 1, RanksPerNode: 1, NodeGBs: 1, LocalGBs: 1, GlobalGBs: 1}},
		// 9 groups need 8 global ports; 2 routers x 1 port = 2.
		{Dragonfly: &Dragonfly{Groups: 9, RoutersPerGroup: 2, NodesPerRouter: 1, GlobalLinksPerRouter: 1, RanksPerNode: 1, NodeGBs: 1, LocalGBs: 1, GlobalGBs: 1}},
		// Zero bandwidth must be caught before netsim would panic.
		{Dragonfly: &Dragonfly{Groups: 2, RoutersPerGroup: 2, NodesPerRouter: 1, GlobalLinksPerRouter: 1, RanksPerNode: 1, NodeGBs: 0, LocalGBs: 1, GlobalGBs: 1}},
		{FatTree: &FatTree{Radix: 3, Levels: 3, RanksPerHost: 1, HostGBs: 1, EdgeGBs: 1, CoreGBs: 1}},
		{FatTree: &FatTree{Radix: 4, Levels: 4, RanksPerHost: 1, HostGBs: 1, EdgeGBs: 1, CoreGBs: 1}},
		{FatTree: &FatTree{Radix: 4, Levels: 3, RanksPerHost: 0, HostGBs: 1, EdgeGBs: 1, CoreGBs: 1}},
		{Explicit: &Explicit{
			Links: []LinkSpec{{A: "x", B: "x", GBs: 1, Channels: 1}},
			Place: Placement{Kind: PlaceBlock, Nodes: []string{"x"}},
		}},
		{Explicit: &Explicit{
			Links: []LinkSpec{{A: "x", B: "y", GBs: 1, Channels: 0}},
			Place: Placement{Kind: PlaceBlock, Nodes: []string{"x"}},
		}},
		{Explicit: &Explicit{
			Links: []LinkSpec{{A: "x", B: "y", GBs: 1, Channels: 1}},
			Place: Placement{Kind: "striped", Nodes: []string{"x"}},
		}},
		{Explicit: &Explicit{
			Links: []LinkSpec{{A: "x", B: "y", GBs: 1, Channels: 1}},
			Place: Placement{Kind: PlacePerRank, Nodes: []string{"x"}, Sockets: []int{0, 1}},
		}},
	}
	for i, topo := range cases {
		if _, _, err := topo.Build(1); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestBuildRejectsPlacementOutsideFabric(t *testing.T) {
	topo := Topology{Explicit: &Explicit{
		Links: []LinkSpec{{A: "x", B: "y", GBs: 1, Channels: 1}},
		Place: Placement{Kind: PlaceBlock, Nodes: []string{"z"}},
	}}
	if _, _, err := topo.Build(1); err == nil {
		t.Fatal("placement node outside fabric must fail")
	}
}

// Topology properties every generated fabric must satisfy: full
// connectivity, path symmetry, the analytic diameter bound, and a
// positive lookahead bound (the window engine's window size).
func testGeneratedProperties(t *testing.T, name string, diameter int) {
	t.Helper()
	cfg, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	in, err := cfg.Instantiate(cfg.MaxRanks)
	if err != nil {
		t.Fatal(err)
	}
	if lb := in.Net.LookaheadBound(); lb <= 0 {
		t.Fatalf("%s: LookaheadBound = %v, want > 0", name, lb)
	}
	// Sample compute-node pairs deterministically: all pairs among a
	// strided subset of rank placements.
	var nodes []string
	seen := map[string]bool{}
	for r := 0; r < len(in.Places); r += 37 {
		nd := in.Places[r].Node
		if !seen[nd] {
			seen[nd] = true
			nodes = append(nodes, nd)
		}
	}
	if len(nodes) < 4 {
		t.Fatalf("%s: sample too small (%d nodes)", name, len(nodes))
	}
	for i, a := range nodes {
		for _, b := range nodes[i+1:] {
			h := mustRoute(t, in, a, b).Hops()
			if h < 1 {
				t.Fatalf("%s: distinct nodes %s and %s at %d hops", name, a, b, h)
			}
			if h > diameter {
				t.Fatalf("%s: hops(%s,%s) = %d exceeds diameter %d", name, a, b, h, diameter)
			}
			if rh := mustRoute(t, in, b, a).Hops(); rh != h {
				t.Fatalf("%s: asymmetric path %s-%s: %d vs %d", name, a, b, h, rh)
			}
		}
	}
}

func TestDragonflyProperties(t *testing.T) {
	m, err := dragonfly1K.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes != 256 || m.MaxRanks != 1024 || m.Switches != 64 {
		t.Fatalf("metrics = %+v", m)
	}
	testGeneratedProperties(t, "dragonfly-1k", m.Diameter)
}

func TestFatTreeProperties(t *testing.T) {
	m, err := fatTree1K.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes != 1024 || m.MaxRanks != 1024 || m.Switches != 16*16+64 {
		t.Fatalf("metrics = %+v", m)
	}
	testGeneratedProperties(t, "fattree-1k", m.Diameter)
}

func TestDragonflyDetours(t *testing.T) {
	_, _, detours, err := dragonfly1K.expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(detours) != dragonfly1K.Groups {
		t.Fatalf("detours = %d, want one per group (%d)", len(detours), dragonfly1K.Groups)
	}
	topo := Topology{Dragonfly: &dragonfly1K, Routing: RoutingAdaptive}
	net, _, err := topo.Build(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range detours {
		if net.NodeIndex(d) < 0 {
			t.Fatalf("detour %q not in fabric", d)
		}
	}
	// Cross-group routes must carry non-minimal alternatives.
	r, err := net.RouteTo("df:g0r0n0", "df:g5r3n1")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Alts()) == 0 {
		t.Fatal("adaptive cross-group route has no alternatives")
	}
	for _, alt := range r.Alts() {
		if alt.Hops() <= r.Hops() {
			t.Fatalf("alt with %d hops not longer than minimal %d", alt.Hops(), r.Hops())
		}
	}
}

func TestDragonflyGlobalWiringBalanced(t *testing.T) {
	// Every group must reach every other group directly, and global
	// port usage must stay within each group's port budget.
	links, _, _, err := dragonfly1K.expand()
	if err != nil {
		t.Fatal(err)
	}
	ports := map[int]int{}
	pairs := map[[2]int]int{}
	for _, l := range links {
		if l.Class != "global" {
			continue
		}
		var gi, gj, ri, rj int
		if _, err := fmt.Sscanf(l.A, "df:g%dr%d", &gi, &ri); err != nil {
			t.Fatal(err)
		}
		if _, err := fmt.Sscanf(l.B, "df:g%dr%d", &gj, &rj); err != nil {
			t.Fatal(err)
		}
		ports[gi]++
		ports[gj]++
		pairs[[2]int{gi, gj}]++
	}
	g := dragonfly1K.Groups
	if len(pairs) != g*(g-1)/2 {
		t.Fatalf("global pairs = %d, want all-to-all %d", len(pairs), g*(g-1)/2)
	}
	budget := dragonfly1K.RoutersPerGroup * dragonfly1K.GlobalLinksPerRouter
	for grp, used := range ports {
		if used > budget {
			t.Fatalf("group %d uses %d global ports, budget %d", grp, used, budget)
		}
	}
}

func TestBlockPlacementMatchesLegacyRule(t *testing.T) {
	// The generic block placement must reproduce the retired
	// per-machine rules at every rank count.
	c, _ := Get("perlmutter-cpu")
	for ranks := 1; ranks <= c.MaxRanks; ranks++ {
		in, err := c.Instantiate(ranks)
		if err != nil {
			t.Fatal(err)
		}
		for r, p := range in.Places {
			s := 0
			if r >= (ranks+1)/2 {
				s = 1
			}
			if want := fmt.Sprintf("pm:s%d", s); p.Node != want || p.Socket != s {
				t.Fatalf("ranks=%d r=%d: place %+v, want %s/%d", ranks, r, p, want, s)
			}
		}
	}
	f, _ := Get("frontier-cpu")
	for _, ranks := range []int{1, 2, 3, 5, 17, 64} {
		in, err := f.Instantiate(ranks)
		if err != nil {
			t.Fatal(err)
		}
		per := (ranks + 3) / 4
		for r, p := range in.Places {
			q := r / per
			if q > 3 {
				q = 3
			}
			if want := fmt.Sprintf("fr:q%d", q); p.Node != want {
				t.Fatalf("ranks=%d r=%d: node %s, want %s", ranks, r, p.Node, want)
			}
		}
	}
}

func TestPerRankCapacity(t *testing.T) {
	c, _ := Get("perlmutter-gpu")
	topo := c.Topology
	if _, _, err := topo.Build(4); err != nil {
		t.Fatal(err)
	}
	if _, _, err := topo.Build(5); err == nil {
		t.Fatal("5 ranks on a 4-slot per-rank placement must fail")
	}
}

func TestScaleFamilies(t *testing.T) {
	for _, n := range []int{1024, 10240, 102400} {
		d := DragonflyForRanks(n)
		if d.MaxRanks() < n {
			t.Fatalf("DragonflyForRanks(%d) holds only %d", n, d.MaxRanks())
		}
		if _, err := d.Metrics(); err != nil {
			t.Fatal(err)
		}
		f := FatTreeForRanks(n)
		if f.MaxRanks() < n {
			t.Fatalf("FatTreeForRanks(%d) holds only %d", n, f.MaxRanks())
		}
		if _, err := f.Metrics(); err != nil {
			t.Fatal(err)
		}
	}
}
