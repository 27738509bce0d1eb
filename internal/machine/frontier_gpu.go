package machine

import "fmt"

// FrontierGPU is an *extension* platform: the paper excluded the
// Frontier GPU partition because ROC_SHMEM lacked wait_until_any
// (§II), and names "extending our Message Roofline Model to AMD GPUs
// using ROC_SHMEM" as future work (§V). Our simulated SHMEM layer
// does implement wait_until_any, so this catalog entry lets every
// GPU experiment in the repository also run on a Frontier-like node:
// four MI250X GPUs joined by Infinity Fabric GPU-GPU links at
// 50 GB/s/direction per pair (2 channels), each GPU owning a NIC via
// PCIe4 ESM. The ROC_SHMEM-style software parameters are projections
// (a less-mature stack than NVSHMEM: slightly higher per-op overhead
// and latency), clearly marked as such — there is no paper data to
// calibrate against, which is exactly why it is an extension.
var rocshmemFrontier = TransportParams{
	OpOverhead:          ns(120),
	OpsPerMsg:           2,
	SoftLatency:         us(5.0),
	Gap:                 ns(350),
	AtomicTime:          ns(600),
	AtomicLinkOccupancy: ns(300),
	SyncRoundTrips:      1,
}

// FrontierGPUName is the catalog key of the extension platform.
const FrontierGPUName = "frontier-gpu"

// streamTrigFrontier projects a stream-triggered stack onto the
// MI250X node: same enqueue-cheap/trigger-late split as the NVIDIA
// machines, with the less-mature stack's higher constants.
var streamTrigFrontier = TransportParams{
	OpOverhead:          ns(30),
	OpsPerMsg:           2,
	SoftLatency:         us(4.0),
	Gap:                 ns(350),
	AtomicTime:          ns(600),
	AtomicLinkOccupancy: ns(300),
	SyncRoundTrips:      1,
	TriggerLatency:      us(1.6),
}

// hostMPIFrontierGPU is the host-staged Cray MPI path: device buffers
// cross the Infinity Fabric CPU-GPU link before the host MPI stack.
var hostMPIFrontierGPU = TransportParams{
	OpOverhead:     ns(150),
	OpsPerMsg:      2,
	SoftLatency:    us(6.2),
	Gap:            ns(50),
	AtomicTime:     us(1.0),
	SyncRoundTrips: 1,
	HostStaged:     true,
}

var FrontierGPU = register(&Config{
	Name:           FrontierGPUName,
	Title:          "Frontier GPU (extension)",
	Kind:           GPU,
	MaxRanks:       4,
	TheoreticalGBs: 50,
	Transports: map[Transport]TransportParams{
		GPUShmem:        rocshmemFrontier,
		TwoSided:        hostMPIFrontierGPU,
		StreamTriggered: streamTrigFrontier,
	},
	GPU: &GPUConfig{
		ComputeScale: 56,
		KernelLaunch: us(10),
		Channels:     2,
	},
	MemBandwidth: 1600 * gb, // HBM2e per MI250X
	MemLatency:   ns(800),
	TableRow: TableRow{
		GPUsPerNode:     "4x MI250X",
		GPUInterconnect: "Infinity Fabric GPU-GPU",
		GPURuntime:      "ROC_SHMEM (projected)",
		GPUCPULink:      "Infinity Fabric (36 GB/s)",
		CPUs:            "1x AMD EPYC 7A53",
		CPUInterconnect: "Infinity Fabric",
		CPURuntime:      "CrayMPI",
		CPUNICLink:      "PCIe4.0 ESM",
	},
	Topology: Topology{Explicit: frontierGPUExplicit()},
})

func fgName(i int) string { return fmt.Sprintf("fg:g%d", i) }

// frontierGPUExplicit wires the four MI250X GPUs all-to-all with each
// GPU's IF CPU-GPU host link (36 GB/s, the Fig 1 data path). The link
// order fixes route tie-breaks (topology.go).
func frontierGPUExplicit() *Explicit {
	var links []LinkSpec
	place := Placement{Kind: PlacePerRank}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			links = append(links, LinkSpec{
				A: fgName(i), B: fgName(j),
				GBs: 25, LatencyNs: 220, Channels: 2, Class: "if-gpu",
			})
		}
		links = append(links, LinkSpec{
			A: fgName(i), B: "fg:host",
			GBs: 36, LatencyNs: 220, Channels: 1, Class: "if-host",
		})
		place.Nodes = append(place.Nodes, fgName(i))
		place.Sockets = append(place.Sockets, 0)
		place.Hosts = append(place.Hosts, "fg:host")
	}
	return &Explicit{Links: links, Place: place}
}
