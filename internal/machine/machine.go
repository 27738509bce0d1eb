// Package machine encodes the evaluation platforms of the paper
// (Table I / Fig. 2): Perlmutter CPU and GPU, Frontier CPU, and Summit
// CPU and GPU. Each Config builds a netsim fabric with the node
// topology of the real machine and carries calibrated per-transport
// software parameters (per-op overhead, software latency, injection
// gap) chosen so the simulated latency and bandwidth figures match the
// paper's reported numbers; see params.go for the calibration table
// and DESIGN.md §5 for the provenance of every constant.
package machine

import (
	"fmt"
	"sort"
	"strings"

	"msgroofline/internal/netsim"
	"msgroofline/internal/sim"
)

// Kind distinguishes CPU machines (ranks are cores) from GPU machines
// (ranks are whole GPUs / PEs).
type Kind int

const (
	// CPU machines run MPI ranks on cores.
	CPU Kind = iota
	// GPU machines run one PE per GPU with device-initiated comms.
	GPU
)

// String returns "CPU" or "GPU".
func (k Kind) String() string {
	if k == GPU {
		return "GPU"
	}
	return "CPU"
}

// Transport selects a communication software stack.
type Transport int

const (
	// TwoSided is classic tag-matched MPI (Isend/Irecv/Waitall).
	TwoSided Transport = iota
	// OneSided is MPI-3 RMA (Put/Win_flush/Win_fence/Fetch_and_op).
	OneSided
	// GPUShmem is device-initiated NVSHMEM-style put-with-signal.
	GPUShmem
	// NotifiedAccess is the extension transport of §V's conclusion:
	// CPU one-sided with hardware-level put-with-signal (foMPI-style
	// notified access, Belli & Hoefler 2015) — one fused operation,
	// one network flight, no user-implemented receiver polling.
	NotifiedAccess
	// StreamTriggered is CPU-free stream-triggered communication
	// (Bridges et al.): the host enqueues descriptors onto the device
	// stream and the GPU fires them when stream dependencies resolve.
	// Host per-op overhead is near zero; a trigger latency is paid at
	// fire time instead.
	StreamTriggered
	// MemChannel is a RAMC-style ordered remote-memory channel
	// (Schonbein et al.): per-(src,dst) FIFO byte streams with
	// channel-open and credit semantics. Ordering replaces per-op
	// completion; quiet/fence map to channel drainage.
	MemChannel
)

// String names the transport as used in figures.
func (t Transport) String() string {
	switch t {
	case TwoSided:
		return "two-sided"
	case OneSided:
		return "one-sided"
	case GPUShmem:
		return "gpu-shmem"
	case NotifiedAccess:
		return "notified-access"
	case StreamTriggered:
		return "stream-triggered"
	case MemChannel:
		return "memchannel"
	default:
		return fmt.Sprintf("Transport(%d)", int(t))
	}
}

// TransportParams are the calibrated software costs of one transport
// on one machine. Together with the fabric's wire times they determine
// every simulated communication cost.
type TransportParams struct {
	// OpOverhead is CPU (or GPU SM) time charged per library call.
	OpOverhead sim.Time
	// OpsPerMsg is how many library calls one application-level
	// message needs (2 for two-sided send+recv, 4 for the paper's
	// one-sided put+flush+put(signal)+flush protocol, 2 for fused
	// GPU put-with-signal).
	OpsPerMsg int
	// SoftLatency is the software/pipeline latency added to each
	// message between injection and wire entry (the bulk of MPI
	// latency; the fabric adds wire propagation on top).
	SoftLatency sim.Time
	// Gap is the minimum spacing between consecutive injections at
	// one endpoint (LogGP g). On GPU machines this applies per
	// injection channel.
	Gap sim.Time
	// AtomicTime is the remote service time of a one-sided atomic
	// (CAS / fetch-and-op), excluding wire propagation.
	AtomicTime sim.Time
	// AtomicLinkOccupancy, when nonzero, makes atomic packets hold
	// each fabric link on their path for this long (transaction-rate
	// limited fabrics such as Summit's X-Bus for GPU atomics). Zero
	// means atomics ride the fabric without per-link serialization
	// (coherent CPU sockets).
	AtomicLinkOccupancy sim.Time
	// SyncRoundTrips is how many remote-completion waits one fully
	// synchronized message pays: 1 for two-sided and fused GPU
	// put-with-signal, 2 for the paper's 4-op one-sided protocol
	// (flush after the data put and again after the signal put).
	SyncRoundTrips int
	// CrossSocketExtra is additional software latency charged on
	// messages between endpoints on different sockets. On Summit's
	// dumbbell, device-initiated puts that leave the island are
	// relayed by a host proxy, which costs far more than the extra
	// wire hops alone.
	CrossSocketExtra sim.Time
	// HostStaged routes every message through the endpoints' host
	// nodes (device -> host -> host -> device) instead of the direct
	// device fabric — the classic host-initiated MPI path the paper's
	// introduction contrasts with GPU-initiated communication.
	HostStaged bool
	// TriggerLatency is the device-side delay between stream-dependency
	// resolution and the descriptor entering the wire (StreamTriggered
	// only). It is latency, not overhead: the host is off the critical
	// path, so the model folds it into L rather than o.
	TriggerLatency sim.Time
	// ChannelOpen is the one-time cost of establishing an ordered
	// memory channel to a peer (MemChannel only); charged lazily on
	// the first send of each (src,dst) pair.
	ChannelOpen sim.Time
	// ChannelCredits bounds the sender-side in-flight messages per
	// channel (MemChannel only); 0 means unbounded.
	ChannelCredits int
}

// Place locates a rank on the fabric.
type Place struct {
	// Node is the netsim node the rank injects from.
	Node string
	// Socket is the NUMA/CPU-socket index, used for reporting and
	// socket-crossing analysis.
	Socket int
	// Host is the CPU node that stages this rank's host-initiated
	// traffic (GPU machines only; empty on CPU machines, where Node
	// is the host).
	Host string
}

// Config describes one evaluation platform.
type Config struct {
	// Name is the catalog key, e.g. "perlmutter-cpu".
	Name string
	// Title is the display name used in tables, e.g. "Perlmutter CPU".
	Title string
	Kind  Kind
	// MaxRanks is the largest rank/PE count the paper used on this
	// machine (128 CPU ranks, 42 Summit cores, 4 or 6 GPUs).
	MaxRanks int
	// TheoreticalGBs is the marketing peak drawn as the horizontal
	// ceiling in the paper's plots (may exceed what is achievable,
	// e.g. Summit's X-Bus: 64 theoretical vs ~25 achieved).
	TheoreticalGBs float64
	// Transports holds the calibrated software parameter sets.
	Transports map[Transport]TransportParams
	// GPU is non-nil on GPU machines.
	GPU *GPUConfig
	// MemBandwidth and MemLatency time transfers between ranks that
	// share a fabric node (same socket / shared memory); these do
	// not traverse netsim links.
	MemBandwidth float64
	MemLatency   sim.Time
	// TableRow carries the Table I columns for pretty-printing.
	TableRow TableRow
	// Topology declares the fabric and rank placement (topology.go):
	// an Explicit link list for the paper machines, or a parametric
	// Dragonfly/FatTree generator for extreme-scale fabrics.
	Topology Topology
}

// GPUConfig models the device side of a GPU machine.
type GPUConfig struct {
	// ComputeScale is the per-PE compute throughput relative to one
	// CPU rank of the same generation.
	ComputeScale float64
	// KernelLaunch is the host-side cost to launch a kernel
	// (charged once per solve/iteration batch on GPU variants).
	KernelLaunch sim.Time
	// Channels is the number of parallel injection channels a PE
	// can drive (NVLink port groups).
	Channels int
}

// TableRow mirrors the columns of the paper's Table I.
type TableRow struct {
	GPUsPerNode     string
	GPUInterconnect string
	GPURuntime      string
	GPUCPULink      string
	CPUs            string
	CPUInterconnect string
	CPURuntime      string
	CPUNICLink      string
}

// Instance is a Config realized for a particular rank count: a fresh
// fabric plus rank placements. An Instance serves one simulation run:
// its links accumulate reservation state, so each run instantiates
// its own.
type Instance struct {
	Cfg    *Config
	Net    *netsim.Network
	Places []Place
}

// Instantiate builds the fabric and places `ranks` ranks/PEs.
func (c *Config) Instantiate(ranks int) (*Instance, error) {
	if ranks < 1 {
		return nil, fmt.Errorf("machine %s: ranks must be >= 1, got %d", c.Name, ranks)
	}
	if ranks > c.MaxRanks {
		return nil, fmt.Errorf("machine %s: %d ranks exceeds capacity %d", c.Name, ranks, c.MaxRanks)
	}
	net, places, err := c.Topology.Build(ranks)
	if err != nil {
		return nil, err
	}
	return &Instance{Cfg: c, Net: net, Places: places}, nil
}

// Params returns the transport parameter set, with ok=false when the
// machine does not support the transport (e.g. GPUShmem on a CPU
// partition).
func (c *Config) Params(t Transport) (TransportParams, bool) {
	p, ok := c.Transports[t]
	return p, ok
}

// SameNode reports whether two ranks share a fabric node (and thus
// communicate through shared memory rather than links).
func (in *Instance) SameNode(a, b int) bool {
	return in.Places[a].Node == in.Places[b].Node
}

var catalog = map[string]*Config{}

func register(c *Config) *Config {
	if _, dup := catalog[c.Name]; dup {
		panic("machine: duplicate config " + c.Name)
	}
	catalog[c.Name] = c
	return c
}

// Get looks up a machine by catalog name.
func Get(name string) (*Config, error) {
	c, ok := catalog[name]
	if !ok {
		return nil, fmt.Errorf("machine: unknown machine %q (have %v)", name, Names())
	}
	return c, nil
}

// Names lists the catalog in sorted order.
func Names() []string {
	out := make([]string, 0, len(catalog))
	for n := range catalog {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All returns every config, sorted by name.
func All() []*Config {
	var out []*Config
	for _, n := range Names() {
		out = append(out, catalog[n])
	}
	return out
}

// NameList renders the catalog as a comma-separated string for
// command usage text, so help output tracks the registry instead of
// hand-maintained lists.
func NameList() string {
	return strings.Join(Names(), ", ")
}
