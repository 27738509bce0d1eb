package machine

import "fmt"

// Generated extreme-scale catalog entries. The paper's five machines
// are single nodes; these exercise the same transports on multi-node
// fabrics from the parametric generators, which is what the Ridgeline
// layer's simulated validation points run on. Software parameters are
// the Cray MPI (Slingshot-11) stacks and the wires are the generated
// fabrics' calibration, both in params.go.

func crayTransports() map[Transport]TransportParams {
	return map[Transport]TransportParams{
		TwoSided:       crayTwoSided,
		OneSided:       crayOneSided,
		NotifiedAccess: crayNotified,
		MemChannel:     crayMemChannel,
	}
}

func interconnectRow(cpus, interconnect string) TableRow {
	return TableRow{
		GPUsPerNode:     "-",
		GPUInterconnect: "-",
		GPURuntime:      "-",
		GPUCPULink:      "-",
		CPUs:            cpus,
		CPUInterconnect: interconnect,
		CPURuntime:      "CrayMPI",
		CPUNICLink:      fmt.Sprintf("NIC %d GB/s", genLinkGBs),
	}
}

// dragonfly1K: 8 groups x 8 routers x 4 nodes = 256 nodes, 4 ranks
// each -> 1024 ranks. One global port per router (8 per group for 7
// peers -> 1 link per group pair): a deliberately tapered global tier
// so adaptive routing has congestion to route around.
var dragonfly1K = Dragonfly{
	Groups:               8,
	RoutersPerGroup:      8,
	NodesPerRouter:       4,
	GlobalLinksPerRouter: 1,
	RanksPerNode:         4,
}

// Dragonfly1K is a generated 1024-rank dragonfly with adaptive
// (UGAL-lite) routing.
var Dragonfly1K = register(&Config{
	Name:           "dragonfly-1k",
	Title:          "Dragonfly 1K (generated)",
	Kind:           CPU,
	MaxRanks:       dragonfly1K.MaxRanks(),
	TheoreticalGBs: genLinkGBs,
	Transports:     crayTransports(),
	MemBandwidth:   80 * gb,
	MemLatency:     ns(350),
	TableRow:       interconnectRow("256 nodes x 4 ranks", "Dragonfly 8x8x4, adaptive"),
	Topology:       Topology{Dragonfly: &dragonfly1K, Routing: RoutingAdaptive},
})

// fatTree1K: radix-16 fat-tree -> 1024 hosts, 1 rank each.
// Uniform link bandwidth (full bisection) — the contrast case to the
// dragonfly's tapered global tier.
var fatTree1K = FatTree{Radix: 16}

// FatTree1K is a generated 1024-rank three-level fat-tree with
// minimal routing.
var FatTree1K = register(&Config{
	Name:           "fattree-1k",
	Title:          "Fat-tree 1K (generated)",
	Kind:           CPU,
	MaxRanks:       fatTree1K.MaxRanks(),
	TheoreticalGBs: genLinkGBs,
	Transports:     crayTransports(),
	MemBandwidth:   80 * gb,
	MemLatency:     ns(350),
	TableRow:       interconnectRow("1024 hosts x 1 rank", "Fat-tree k=16, minimal"),
	Topology:       Topology{FatTree: &fatTree1K, Routing: RoutingMinimal},
})

// dragonfly10K: 16 groups x 16 routers x 4 nodes = 1024 nodes, 10
// ranks each -> 10240 ranks. The scale point the topo-scale benchmark
// and the Ridgeline cross-checks use.
var dragonfly10K = Dragonfly{
	Groups:               16,
	RoutersPerGroup:      16,
	NodesPerRouter:       4,
	GlobalLinksPerRouter: 1,
	RanksPerNode:         10,
}

// Dragonfly10K is a generated 10240-rank dragonfly with adaptive
// routing.
var Dragonfly10K = register(&Config{
	Name:           "dragonfly-10k",
	Title:          "Dragonfly 10K (generated)",
	Kind:           CPU,
	MaxRanks:       dragonfly10K.MaxRanks(),
	TheoreticalGBs: genLinkGBs,
	Transports:     crayTransports(),
	MemBandwidth:   80 * gb,
	MemLatency:     ns(350),
	TableRow:       interconnectRow("1024 nodes x 10 ranks", "Dragonfly 16x16x4, adaptive"),
	Topology:       Topology{Dragonfly: &dragonfly10K, Routing: RoutingAdaptive},
})
