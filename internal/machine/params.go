package machine

import (
	"fmt"

	"msgroofline/internal/sim"
)

// Calibration notes
//
// Link peaks come from Table I / §II of the paper. Wire propagation
// latencies are small (150-300 ns): most of an MPI message's latency
// is software, which lives in TransportParams.SoftLatency. The
// software constants are reverse-engineered from the paper's reported
// figures:
//
//	Perlmutter CPU  two-sided: single-message ~3.3 us (Fig 6b),
//	                amortized ~0.3 us (Fig 3a / §III-C).
//	Perlmutter CPU  one-sided: 4 ops -> ~5 us single message (Fig 6b),
//	                amortized ~20% below two-sided (Fig 3a, §III-A);
//	                CAS ~2 us (§III-C).
//	Summit CPU      Spectrum MPI: ~3 us two-sided latency (§III-B);
//	                one-sided consistently worse (Fig 3c).
//	Perlmutter GPU  NVSHMEM: 4 us -> 0.5 us (§II), CAS 0.8 us (§III-C);
//	                per-pair 100 GB/s over 4 NVLink3 port channels.
//	Summit GPU      NVSHMEM: ~5 us latency (§III-B), CAS 1.0 us within
//	                a socket and 1.6 us across (§III-C); NVLink2
//	                50 GB/s in-island, 32 GB/s across sockets.
//	Frontier CPU    Cray MPI like Perlmutter; 36 GB/s Infinity Fabric
//	                ceiling (Fig 1).
const (
	gb = 1e9 // bytes per second per "GB/s"
)

func us(v float64) sim.Time { return sim.FromMicroseconds(v) }
func ns(v float64) sim.Time { return sim.FromNanoseconds(v) }

// The generated fabrics' wires (generate.go): every dragonfly and
// fat-tree link is one Slingshot-like 25 GB/s channel, with a
// propagation latency per tier.
const (
	genLinkGBs = 25

	dfNodeLatencyNs   = 300 // node - router ("intra-router")
	dfLocalLatencyNs  = 200 // router - router within a group ("local")
	dfGlobalLatencyNs = 700 // router - router across groups ("global")

	ftHostLatencyNs = 300 // host - edge switch ("edge")
	ftEdgeLatencyNs = 400 // edge - aggregation switch ("aggregation")
	ftCoreLatencyNs = 500 // aggregation - core switch ("core")
)

// crayTwoSided / crayOneSided are the Cray MPI (Slingshot-11) stacks
// used on Perlmutter CPU and Frontier CPU.
var crayTwoSided = TransportParams{
	OpOverhead:     ns(150),
	OpsPerMsg:      2,
	SoftLatency:    us(2.7),
	Gap:            ns(50),
	AtomicTime:     us(1.0), // via active-message emulation; unused by benchmarks
	SyncRoundTrips: 1,
}

var crayOneSided = TransportParams{
	OpOverhead:     ns(30),
	OpsPerMsg:      4, // put(data), flush, put(signal), flush
	SoftLatency:    us(2.25),
	Gap:            ns(40),
	AtomicTime:     us(1.6), // + wire round trip ≈ 2 us end to end
	SyncRoundTrips: 2,       // flush twice per fully synchronized message
}

// crayNotified is the extension transport of the paper's conclusion:
// one-sided with hardware put-with-signal ("it can be intuitively
// inferred that the one-sided MPI can easily outperform the two-sided
// MPI with hardware-level support for put-with-signal", §V). Same
// pipeline latency as the one-sided data path, but one fused
// operation and a single remote-completion wait per message.
var crayNotified = TransportParams{
	OpOverhead:     ns(30),
	OpsPerMsg:      2, // fused put + notification
	SoftLatency:    us(2.25),
	Gap:            ns(40),
	AtomicTime:     us(1.6),
	SyncRoundTrips: 1,
}

// spectrumTwoSided / spectrumOneSided are IBM Spectrum MPI on Summit;
// the one-sided path is consistently slower there (Fig 3c).
var spectrumTwoSided = TransportParams{
	OpOverhead:     ns(250),
	OpsPerMsg:      2,
	SoftLatency:    us(2.2),
	Gap:            ns(80),
	AtomicTime:     us(1.4),
	SyncRoundTrips: 1,
}

var spectrumOneSided = TransportParams{
	OpOverhead:     ns(450),
	OpsPerMsg:      4,
	SoftLatency:    us(2.6),
	Gap:            ns(100),
	AtomicTime:     us(2.4),
	SyncRoundTrips: 2,
}

// nvshmemPerlmutter / nvshmemSummit are the device-initiated stacks.
// put-with-signal is fused: 2 logical ops per message.
var nvshmemPerlmutter = TransportParams{
	OpOverhead:  ns(80),
	OpsPerMsg:   2,
	SoftLatency: us(3.5),
	Gap:         ns(250),
	AtomicTime:  ns(400), // + wire round trip ≈ 0.8 us end to end
	// NVLink3 atomics are cheap and spread over four port channels.
	AtomicLinkOccupancy: ns(150),
	SyncRoundTrips:      1, // fused put-with-signal
}

var nvshmemSummit = TransportParams{
	OpOverhead:  ns(100),
	OpsPerMsg:   2,
	SoftLatency: us(4.4),
	Gap:         ns(300),
	AtomicTime:  ns(550), // 0.95 us in-island, ~1.65 us across sockets
	// X-Bus atomic transactions serialize: crossing the dumbbell
	// saturates at ~2 atomics/us, which is what stops the hashtable
	// scaling past 3 GPUs (Fig 9).
	AtomicLinkOccupancy: ns(500),
	SyncRoundTrips:      1,
	// Cross-island puts are relayed by a host proxy (no direct
	// NVLink between the dumbbell's islands), adding software
	// latency well beyond the extra wire hops.
	CrossSocketExtra: us(2.5),
}

// streamTrigPerlmutter / streamTrigSummit are stream-triggered MPI
// stacks (Bridges et al.): the host enqueues descriptors onto the
// device stream ahead of time, so the per-op host overhead collapses
// to the enqueue cost (~tens of ns, off the critical path at fire
// time) while the device-side trigger engine adds a fixed latency to
// every message. One descriptor per message: the trigger fires the
// fused put, and stream order replaces explicit completion ops.
var streamTrigPerlmutter = TransportParams{
	OpOverhead:          ns(20), // host enqueue only; fires without host
	OpsPerMsg:           2,      // descriptor + fused put-with-signal
	SoftLatency:         us(2.8),
	Gap:                 ns(250),
	AtomicTime:          ns(400),
	AtomicLinkOccupancy: ns(150),
	SyncRoundTrips:      1,
	TriggerLatency:      us(1.1), // stream-dependency resolution + doorbell
}

var streamTrigSummit = TransportParams{
	OpOverhead:          ns(25),
	OpsPerMsg:           2,
	SoftLatency:         us(3.6),
	Gap:                 ns(300),
	AtomicTime:          ns(550),
	AtomicLinkOccupancy: ns(500),
	SyncRoundTrips:      1,
	CrossSocketExtra:    us(2.5),
	TriggerLatency:      us(1.4),
}

// crayMemChannel is the RAMC-style ordered memory channel over
// Slingshot (Schonbein et al.): one op per message (a channel write —
// ordering replaces per-op completion, so there are no flush ops),
// sender-side credits bound in-flight messages, and a one-time
// channel-open handshake is paid on first use of each (src,dst) pair.
var crayMemChannel = TransportParams{
	OpOverhead:     ns(60),
	OpsPerMsg:      1, // one channel write; no completion ops
	SoftLatency:    us(2.0),
	Gap:            ns(45),
	AtomicTime:     us(1.6),
	SyncRoundTrips: 1, // drain waits one round trip for the channel tail
	ChannelOpen:    us(12),
	ChannelCredits: 64,
}

// Host-initiated MPI on the GPU machines: the classic staging path
// (device -> host copy, MPI between hosts, host -> device copy) that
// the paper's introduction contrasts with GPU-initiated communication.
// The software latency includes the device-synchronize + memcpy
// overhead on top of the host MPI stack; every message additionally
// traverses the PCIe/NVLink host links in the fabric (HostStaged).
var hostMPIPerlmutterGPU = TransportParams{
	OpOverhead:     ns(150),
	OpsPerMsg:      2,
	SoftLatency:    us(6.0),
	Gap:            ns(50),
	AtomicTime:     us(1.0),
	SyncRoundTrips: 1,
	HostStaged:     true,
}

var hostMPISummitGPU = TransportParams{
	OpOverhead:     ns(250),
	OpsPerMsg:      2,
	SoftLatency:    us(6.5),
	Gap:            ns(80),
	AtomicTime:     us(1.4),
	SyncRoundTrips: 1,
	HostStaged:     true,
}

// PerlmutterCPU: two Milan sockets joined by Infinity Fabric at
// 32 GB/s/direction over 4 channels (Fig 2a). NIC on socket 0 via
// PCIe4 (not exercised by single-node experiments but present).
var PerlmutterCPU = register(&Config{
	Name:           "perlmutter-cpu",
	Title:          "Perlmutter CPU",
	Kind:           CPU,
	MaxRanks:       128,
	TheoreticalGBs: 32,
	Transports: map[Transport]TransportParams{
		TwoSided:       crayTwoSided,
		OneSided:       crayOneSided,
		NotifiedAccess: crayNotified,
		MemChannel:     crayMemChannel,
	},
	MemBandwidth: 80 * gb,
	MemLatency:   ns(350),
	TableRow: TableRow{
		GPUsPerNode:     "-",
		GPUInterconnect: "-",
		GPURuntime:      "-",
		GPUCPULink:      "-",
		CPUs:            "2x AMD EPYC 7763",
		CPUInterconnect: "Infinity Fabric",
		CPURuntime:      "CrayMPI",
		CPUNICLink:      "PCIe4.0",
	},
	Topology: Topology{Explicit: &Explicit{
		Links: []LinkSpec{
			{A: "pm:s0", B: "pm:s1", GBs: 32, LatencyNs: 150, Channels: 4, Class: "socket"},
			{A: "pm:s0", B: "pm:nic", GBs: 25, LatencyNs: 250, Channels: 1, Class: "nic"},
		},
		// Block placement: first half on socket 0 (MPI default).
		Place: Placement{Kind: PlaceBlock, Nodes: []string{"pm:s0", "pm:s1"}},
	}},
})

// FrontierCPU: one 64-core "Optimized 3rd Gen EPYC" socket organized
// as four NUMA quadrants; quadrants exchange data over Infinity
// Fabric at 36 GB/s/direction (Fig 1: the ultimate on-node bound).
var FrontierCPU = register(&Config{
	Name:           "frontier-cpu",
	Title:          "Frontier CPU",
	Kind:           CPU,
	MaxRanks:       64,
	TheoreticalGBs: 36,
	Transports: map[Transport]TransportParams{
		TwoSided:       crayTwoSided,
		OneSided:       crayOneSided,
		NotifiedAccess: crayNotified,
		MemChannel:     crayMemChannel,
	},
	MemBandwidth: 80 * gb,
	MemLatency:   ns(350),
	TableRow: TableRow{
		GPUsPerNode:     "-",
		GPUInterconnect: "-",
		GPURuntime:      "-",
		GPUCPULink:      "-",
		CPUs:            "1x AMD EPYC 7A53",
		CPUInterconnect: "Infinity Fabric",
		CPURuntime:      "CrayMPI",
		CPUNICLink:      "IF + PCIe4.0 ESM",
	},
	Topology: Topology{Explicit: frontierCPUExplicit()},
})

// frontierCPUExplicit wires the four NUMA quadrants all-to-all in
// (i, j) order; the order fixes route tie-breaks (topology.go).
func frontierCPUExplicit() *Explicit {
	var links []LinkSpec
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			links = append(links, LinkSpec{
				A: fmt.Sprintf("fr:q%d", i), B: fmt.Sprintf("fr:q%d", j),
				GBs: 36, LatencyNs: 140, Channels: 4, Class: "numa",
			})
		}
	}
	return &Explicit{
		Links: links,
		Place: Placement{Kind: PlaceBlock, Nodes: []string{"fr:q0", "fr:q1", "fr:q2", "fr:q3"}},
	}
}

// SummitCPU: two POWER9 sockets joined by X-Bus. The theoretical
// 64 GB/s/direction is never approached (the paper observed ~25 GB/s);
// the links carry the achievable 26 GB/s over 2 channels while the
// plotted ceiling stays at the theoretical value.
var SummitCPU = register(&Config{
	Name:           "summit-cpu",
	Title:          "Summit CPU",
	Kind:           CPU,
	MaxRanks:       42,
	TheoreticalGBs: 64,
	Transports: map[Transport]TransportParams{
		TwoSided: spectrumTwoSided,
		OneSided: spectrumOneSided,
	},
	MemBandwidth: 60 * gb,
	MemLatency:   ns(400),
	TableRow: TableRow{
		GPUsPerNode:     "6x V100",
		GPUInterconnect: "NVLINK2",
		GPURuntime:      "CUDA 11.0.3 / NVSHMEM 2.8.0",
		GPUCPULink:      "NVLINK2",
		CPUs:            "2x IBM POWER9",
		CPUInterconnect: "X-Bus",
		CPURuntime:      "IBM Spectrum",
		CPUNICLink:      "PCIe4.0",
	},
	Topology: Topology{Explicit: &Explicit{
		Links: []LinkSpec{
			{A: "sm:s0", B: "sm:s1", GBs: 26, LatencyNs: 300, Channels: 2, Class: "socket"},
		},
		Place: Placement{Kind: PlaceBlock, Nodes: []string{"sm:s0", "sm:s1"}},
	}},
})

// PerlmutterGPU: four A100s, fully connected NVLink3. Each pair is
// joined by four 25 GB/s port channels (12 ports in 3 groups), i.e.
// 100 GB/s/direction per pair — a single serialized message stream
// sees 25 GB/s, and splitting across channels exposes the aggregate
// (the Fig 10 mechanism).
var PerlmutterGPU = register(&Config{
	Name:           "perlmutter-gpu",
	Title:          "Perlmutter GPU",
	Kind:           GPU,
	MaxRanks:       4,
	TheoreticalGBs: 100,
	Transports: map[Transport]TransportParams{
		GPUShmem:        nvshmemPerlmutter,
		TwoSided:        hostMPIPerlmutterGPU,
		StreamTriggered: streamTrigPerlmutter,
	},
	GPU: &GPUConfig{
		ComputeScale: 64,
		KernelLaunch: us(8),
		Channels:     4,
	},
	MemBandwidth: 1300 * gb, // HBM2e
	MemLatency:   ns(700),
	TableRow: TableRow{
		GPUsPerNode:     "4x A100",
		GPUInterconnect: "NVLINK3",
		GPURuntime:      "cudatoolkit 11.7 / NVSHMEM 2.8.0",
		GPUCPULink:      "PCIe4",
		CPUs:            "1x AMD EPYC 7763",
		CPUInterconnect: "-",
		CPURuntime:      "-",
		CPUNICLink:      "PCIe4.0",
	},
	Topology: Topology{Explicit: perlmutterGPUExplicit()},
})

// perlmutterGPUExplicit interleaves each GPU's NVLink pair links with
// its PCIe host link (host-staged traffic only); the order fixes route
// tie-breaks (topology.go).
func perlmutterGPUExplicit() *Explicit {
	var links []LinkSpec
	place := Placement{Kind: PlacePerRank}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			links = append(links, LinkSpec{
				A: fmt.Sprintf("pg:g%d", i), B: fmt.Sprintf("pg:g%d", j),
				GBs: 25, LatencyNs: 200, Channels: 4, Class: "nvlink",
			})
		}
		links = append(links, LinkSpec{
			A: fmt.Sprintf("pg:g%d", i), B: "pg:host",
			GBs: 25, LatencyNs: 250, Channels: 1, Class: "pcie",
		})
		place.Nodes = append(place.Nodes, fmt.Sprintf("pg:g%d", i))
		place.Sockets = append(place.Sockets, 0)
		place.Hosts = append(place.Hosts, "pg:host")
	}
	return &Explicit{Links: links, Place: place}
}

// SummitGPU: six V100s in the dual-island dumbbell of Fig 2c. Within
// an island the three GPUs are fully connected by NVLink2 (two 25 GB/s
// bricks per pair = 50 GB/s/direction). Island-to-island traffic hops
// GPU -> local CPU socket -> X-Bus -> remote socket -> GPU, and all
// cross-island pairs share the one X-Bus (the contention that stops
// hashtable scaling past 3 GPUs, Fig 9).
var SummitGPU = register(&Config{
	Name:           "summit-gpu",
	Title:          "Summit GPU",
	Kind:           GPU,
	MaxRanks:       6,
	TheoreticalGBs: 50,
	Transports: map[Transport]TransportParams{
		GPUShmem:        nvshmemSummit,
		TwoSided:        hostMPISummitGPU,
		StreamTriggered: streamTrigSummit,
	},
	GPU: &GPUConfig{
		ComputeScale: 48,
		KernelLaunch: us(9),
		Channels:     2,
	},
	MemBandwidth: 900 * gb, // HBM2
	MemLatency:   ns(800),
	TableRow: TableRow{
		GPUsPerNode:     "6x V100",
		GPUInterconnect: "NVLINK2",
		GPURuntime:      "CUDA 11.0.3 / NVSHMEM 2.8.0",
		GPUCPULink:      "NVLINK2",
		CPUs:            "2x IBM POWER9",
		CPUInterconnect: "X-Bus",
		CPURuntime:      "IBM Spectrum",
		CPUNICLink:      "PCIe4.0",
	},
	Topology: Topology{Explicit: summitGPUExplicit()},
})

func gName(i int) string { return fmt.Sprintf("sg:g%d", i) }

// summitGPUExplicit wires the dumbbell — islands g0-g2 on socket 0 and
// g3-g5 on socket 1, each GPU hubbed to its socket, one X-Bus between
// sockets (32 GB/s/direction for GPU traffic per §II). The link order
// fixes route tie-breaks (topology.go).
func summitGPUExplicit() *Explicit {
	var links []LinkSpec
	place := Placement{Kind: PlacePerRank}
	for s := 0; s < 2; s++ {
		base := 3 * s
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				links = append(links, LinkSpec{
					A: gName(base + i), B: gName(base + j),
					GBs: 25, LatencyNs: 200, Channels: 2, Class: "nvlink",
				})
			}
			// GPU to its island's CPU socket hub (NVLink2).
			links = append(links, LinkSpec{
				A: gName(base + i), B: fmt.Sprintf("sg:s%d", s),
				GBs: 25, LatencyNs: 150, Channels: 2, Class: "nvlink-host",
			})
			place.Nodes = append(place.Nodes, gName(base+i))
			place.Sockets = append(place.Sockets, s)
			place.Hosts = append(place.Hosts, fmt.Sprintf("sg:s%d", s))
		}
	}
	links = append(links, LinkSpec{
		A: "sg:s0", B: "sg:s1", GBs: 32, LatencyNs: 250, Channels: 1, Class: "xbus",
	})
	return &Explicit{Links: links, Place: place}
}
