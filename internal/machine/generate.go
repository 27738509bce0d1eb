package machine

import "fmt"

// Parametric topology generators: dragonfly and fat-tree fabrics
// expand to the same LinkSpec-list form the Explicit paper machines
// use, so one builder (topology.go) materializes everything. A spec
// gives only the shape; every link is one channel of the generated
// wire calibration in params.go (genLinkGBs and the per-tier
// latencies). Link classes tag each tier for per-class utilization
// stats, and the dragonfly generator registers one detour router per
// group so the adaptive routing policy has Valiant candidates to
// bounce through.

// Dragonfly is a canonical dragonfly: Groups groups of
// RoutersPerGroup routers, each router serving NodesPerRouter compute
// nodes over "intra-router" links; routers within a group are
// all-to-all over "local" links; groups are all-to-all over "global"
// links, with each group's RoutersPerGroup*GlobalLinksPerRouter
// global ports distributed round-robin across its Groups-1 peers.
// Routers are named "df:g<g>r<r>" and nodes "df:g<g>r<r>n<n>".
type Dragonfly struct {
	Groups               int
	RoutersPerGroup      int
	NodesPerRouter       int
	GlobalLinksPerRouter int
	// RanksPerNode is the compute-node rank capacity (MaxRanks =
	// Nodes * RanksPerNode; placement is block over nodes).
	RanksPerNode int
}

func (d *Dragonfly) router(g, r int) string { return fmt.Sprintf("df:g%dr%d", g, r) }
func (d *Dragonfly) node(g, r, n int) string {
	return fmt.Sprintf("df:g%dr%dn%d", g, r, n)
}

// NodeCount returns the compute-node count.
func (d *Dragonfly) NodeCount() int { return d.Groups * d.RoutersPerGroup * d.NodesPerRouter }

// MaxRanks returns the rank capacity.
func (d *Dragonfly) MaxRanks() int { return d.NodeCount() * d.RanksPerNode }

func (d *Dragonfly) validate() error {
	if d.Groups < 2 || d.RoutersPerGroup < 1 || d.NodesPerRouter < 1 || d.GlobalLinksPerRouter < 1 || d.RanksPerNode < 1 {
		return fmt.Errorf("machine: dragonfly dimensions must be positive (groups >= 2): %+v", d)
	}
	if ports := d.RoutersPerGroup * d.GlobalLinksPerRouter; ports < d.Groups-1 {
		return fmt.Errorf("machine: dragonfly with %d groups needs >= %d global ports per group, have %d",
			d.Groups, d.Groups-1, ports)
	}
	return nil
}

// globalLinksPerPair returns how many parallel global links join each
// group pair: the group's global ports spread evenly over its peers.
func (d *Dragonfly) globalLinksPerPair() int {
	return d.RoutersPerGroup * d.GlobalLinksPerRouter / (d.Groups - 1)
}

// expand lowers the spec to links + placement + detours. Link order
// (nodes, then local, then global) is part of the spec's contract:
// it fixes BFS tie-breaks, so a given parameterization always builds
// a byte-identical fabric.
func (d *Dragonfly) expand() ([]LinkSpec, Placement, []string, error) {
	if err := d.validate(); err != nil {
		return nil, Placement{}, nil, err
	}
	var links []LinkSpec
	var nodes []string
	for g := 0; g < d.Groups; g++ {
		for r := 0; r < d.RoutersPerGroup; r++ {
			for n := 0; n < d.NodesPerRouter; n++ {
				nodes = append(nodes, d.node(g, r, n))
				links = append(links, LinkSpec{
					A: d.node(g, r, n), B: d.router(g, r),
					GBs: genLinkGBs, LatencyNs: dfNodeLatencyNs, Channels: 1, Class: "intra-router",
				})
			}
		}
	}
	for g := 0; g < d.Groups; g++ {
		for i := 0; i < d.RoutersPerGroup; i++ {
			for j := i + 1; j < d.RoutersPerGroup; j++ {
				links = append(links, LinkSpec{
					A: d.router(g, i), B: d.router(g, j),
					GBs: genLinkGBs, LatencyNs: dfLocalLatencyNs, Channels: 1, Class: "local",
				})
			}
		}
	}
	// Global ports are consumed round-robin over each group's routers
	// as its pairs come up in (i, j) order.
	port := make([]int, d.Groups)
	perPair := d.globalLinksPerPair()
	for i := 0; i < d.Groups; i++ {
		for j := i + 1; j < d.Groups; j++ {
			for c := 0; c < perPair; c++ {
				ri := port[i] % d.RoutersPerGroup
				rj := port[j] % d.RoutersPerGroup
				port[i]++
				port[j]++
				links = append(links, LinkSpec{
					A: d.router(i, ri), B: d.router(j, rj),
					GBs: genLinkGBs, LatencyNs: dfGlobalLatencyNs, Channels: 1, Class: "global",
				})
			}
		}
	}
	// One detour router per group: Valiant candidates for adaptive
	// routes to bounce through a third group. Spreading the choice
	// (g mod routers) avoids always electing router 0.
	var detours []string
	for g := 0; g < d.Groups; g++ {
		detours = append(detours, d.router(g, g%d.RoutersPerGroup))
	}
	place := Placement{Kind: PlaceBlock, Nodes: nodes}
	return links, place, detours, nil
}

// Metrics summarizes the spec analytically, without building the
// fabric — cheap at any scale, which is what lets the Ridgeline layer
// place 100K-rank map points no simulation could afford.
func (d *Dragonfly) Metrics() (TopoMetrics, error) {
	if err := d.validate(); err != nil {
		return TopoMetrics{}, err
	}
	pairs := d.Groups * (d.Groups - 1) / 2
	globals := pairs * d.globalLinksPerPair()
	m := TopoMetrics{
		Topology: "dragonfly",
		Nodes:    d.NodeCount(),
		Switches: d.Groups * d.RoutersPerGroup,
		MaxRanks: d.MaxRanks(),
		// node -> router -> (local) -> global -> (local) -> router -> node
		Diameter:         5,
		InjectionGBs:     genLinkGBs,
		MaxWireLatencyNs: 2*dfNodeLatencyNs + 2*dfLocalLatencyNs + dfGlobalLatencyNs,
	}
	// Uniform all-to-all traffic: a rank's sustainable injection is
	// bottlenecked by its share of the node's NIC and by the global
	// tier, which carries the (Groups-1)/Groups fraction of traffic
	// that leaves the source group.
	crossFrac := float64(d.Groups-1) / float64(d.Groups)
	globalShare := float64(globals) * genLinkGBs / (float64(d.MaxRanks()) * crossFrac)
	m.UniformGBsPerRank = minf(genLinkGBs/float64(d.RanksPerNode), globalShare)
	return m, nil
}

// FatTree is a three-level k-ary fat-tree of Radix-port switches:
// Radix pods, each with Radix/2 "edge" and Radix/2 "aggregation"
// switches and Radix/2 hosts per edge switch, under (Radix/2)^2
// "core" switches — Radix^3/4 hosts of one rank each. Every switch and
// host name starts with "ft:".
type FatTree struct {
	Radix int
}

func (f *FatTree) validate() error {
	if f.Radix < 2 || f.Radix%2 != 0 {
		return fmt.Errorf("machine: fat-tree radix must be even and >= 2, got %d", f.Radix)
	}
	return nil
}

// MaxRanks returns the rank capacity: one rank per host.
func (f *FatTree) MaxRanks() int { return f.Radix * f.Radix * f.Radix / 4 }

func (f *FatTree) expand() ([]LinkSpec, Placement, []string, error) {
	if err := f.validate(); err != nil {
		return nil, Placement{}, nil, err
	}
	half := f.Radix / 2
	var links []LinkSpec
	var hosts []string
	for p := 0; p < f.Radix; p++ {
		for e := 0; e < half; e++ {
			sw := fmt.Sprintf("ft:p%de%d", p, e)
			for h := 0; h < half; h++ {
				host := fmt.Sprintf("ft:p%de%dh%d", p, e, h)
				hosts = append(hosts, host)
				links = append(links, LinkSpec{A: host, B: sw,
					GBs: genLinkGBs, LatencyNs: ftHostLatencyNs, Channels: 1, Class: "edge"})
			}
		}
	}
	for p := 0; p < f.Radix; p++ {
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				links = append(links, LinkSpec{
					A:   fmt.Sprintf("ft:p%de%d", p, e),
					B:   fmt.Sprintf("ft:p%da%d", p, a),
					GBs: genLinkGBs, LatencyNs: ftEdgeLatencyNs, Channels: 1, Class: "aggregation",
				})
			}
		}
	}
	// Aggregation switch a of every pod uplinks to core switches
	// [a*half, (a+1)*half) — the standard k-ary core wiring.
	for p := 0; p < f.Radix; p++ {
		for a := 0; a < half; a++ {
			for c := 0; c < half; c++ {
				links = append(links, LinkSpec{
					A:   fmt.Sprintf("ft:p%da%d", p, a),
					B:   fmt.Sprintf("ft:c%d", a*half+c),
					GBs: genLinkGBs, LatencyNs: ftCoreLatencyNs, Channels: 1, Class: "core",
				})
			}
		}
	}
	return links, Placement{Kind: PlaceBlock, Nodes: hosts}, nil, nil
}

// Metrics summarizes the spec analytically (see Dragonfly.Metrics).
func (f *FatTree) Metrics() (TopoMetrics, error) {
	if err := f.validate(); err != nil {
		return TopoMetrics{}, err
	}
	half := f.Radix / 2
	m := TopoMetrics{
		Topology:         "fat-tree",
		Nodes:            f.MaxRanks(),
		Switches:         f.Radix*f.Radix + half*half,
		MaxRanks:         f.MaxRanks(),
		Diameter:         6, // host-edge-agg-core-agg-edge-host
		InjectionGBs:     genLinkGBs,
		MaxWireLatencyNs: 2*ftHostLatencyNs + 2*ftEdgeLatencyNs + 2*ftCoreLatencyNs,
	}
	// Uniform all-to-all traffic: the core uplinks carry the cross-pod
	// fraction (Radix-1)/Radix.
	coreLinks := f.Radix * half * half
	crossFrac := float64(f.Radix-1) / float64(f.Radix)
	coreShare := float64(coreLinks) * genLinkGBs / (float64(f.MaxRanks()) * crossFrac)
	m.UniformGBsPerRank = minf(genLinkGBs, coreShare)
	return m, nil
}

// TopoMetrics is the analytic summary of a generated topology spec.
type TopoMetrics struct {
	Topology string
	Nodes    int
	Switches int
	MaxRanks int
	// Diameter bounds the compute-node-to-compute-node hop count.
	Diameter int
	// MaxWireLatencyNs sums the per-class propagation latencies along
	// a diameter path — the worst-case zero-contention wire latency.
	MaxWireLatencyNs float64
	// InjectionGBs is the per-node injection bandwidth.
	InjectionGBs float64
	// UniformGBsPerRank is the sustainable per-rank bandwidth under
	// uniform all-to-all traffic at full rank occupancy: the min of
	// the rank's NIC share and its share of the bisection-limiting
	// tier (global links / core uplinks). The Ridgeline layer derates
	// its network ceiling by this.
	UniformGBsPerRank float64
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// DragonflyForRanks sizes a balanced dragonfly (routers = 2h, nodes
// per router = h, groups = 2h*h + 1 for h global ports per router —
// the canonical balanced sizing) just large enough for n ranks at 4
// ranks per node. Used by the Ridgeline scale sweeps; only Metrics()
// is ever taken at large n.
func DragonflyForRanks(n int) Dragonfly {
	h := 1
	for {
		d := Dragonfly{
			Groups:               2*h*h + 1,
			RoutersPerGroup:      2 * h,
			NodesPerRouter:       h,
			GlobalLinksPerRouter: h,
			RanksPerNode:         4,
		}
		if d.MaxRanks() >= n || h >= 64 {
			return d
		}
		h++
	}
}

// FatTreeForRanks sizes a fat-tree (smallest even radix whose
// Radix^3/4 hosts hold n ranks) — full bisection, the contrast case to
// the dragonfly's tapered global tier.
func FatTreeForRanks(n int) FatTree {
	k := 4
	for {
		f := FatTree{Radix: k}
		if f.MaxRanks() >= n || k >= 256 {
			return f
		}
		k += 2
	}
}
