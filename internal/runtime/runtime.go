// Package runtime glues the simulation layers together: it realizes a
// machine.Instance as a set of communicating endpoints (one per MPI
// rank or SHMEM PE) on the coupled conservative-lookahead engine, and
// provides the primitive cost operations the mpi and shmem layers are
// built from — charging per-op CPU overhead, injecting messages
// through a NIC with a LogGP gap, timing the wire journey on the
// netsim fabric, and round-trip remote atomics.
//
// Per-rank state is rank-confined: a rank's endpoint and everything
// the stacks build on it (window memory, PE heaps, barriers) live with
// the rank's node group and are touched only from that group's engine.
// Cross-group effects arrive as events on the owning group's engine,
// and mutations of shared fabric state (link reservations, fault
// draws) are deferred to the window barrier, where they apply in the
// (at, senderRank<<40|senderCounter) total order (sim.CoupledEngine).
//
// Routes depend only on the two fabric nodes, so endpoints keep no
// routing state of their own: each holds its placement as dense netsim
// node indices, and every cross-node send composes its route from the
// network's attachment-pair cache (netsim.Network.RouteAt): the end
// hops of leaf nodes around a core route cached per router pair.
package runtime

import (
	"fmt"

	"msgroofline/internal/machine"
	"msgroofline/internal/netsim"
	"msgroofline/internal/sim"
)

// World is one simulated job: a coupled engine (one sequential
// sub-engine per fabric node group), a machine instance, and one
// endpoint per rank.
type World struct {
	Inst *machine.Instance
	eng  *sim.CoupledEngine
	eps  []*Endpoint

	chaos Chaos // installed by SetChaos
}

// Chaos is the disorder the conformance harness installs on a world:
// schedule perturbation on every group engine (group g draws decision
// stream g; see sim.Perturbation), network fault injection, and the
// one ordering switch. Unordered deliberately breaks every ordering
// contract made in the world — each resequencer (Order) lands MPI
// messages and channel writes in wire order, and each device stream
// fires descriptors without waiting for their predecessors — so the
// oracles can prove they catch it. The zero value installs nothing.
type Chaos struct {
	Perturb   *sim.Perturbation
	Faults    *netsim.Faults
	Unordered bool
}

// NewWorldSharded builds a world with `ranks` endpoints on the
// sharded (coupled conservative-lookahead) engine. Ranks are grouped
// by fabric node — the unit at which delivery is stateless shared
// memory — and each group owns a private sequential sub-engine;
// `shards` sets only how many groups may execute a conservative
// window concurrently (clamped to [1, groups]; <= 0 means 1).
//
// The group structure, the window bounds and the barrier order are all
// topology-determined, so simulated output is byte-identical at every
// -shards value (the Digest certifies it), while -shards > 1 buys
// wall-clock parallelism on multi-node machines. A single-node world
// runs on the same engine, as one exactly sequential group.
func NewWorldSharded(cfg *machine.Config, ranks, shards int) (*World, error) {
	inst, err := cfg.Instantiate(ranks)
	if err != nil {
		return nil, err
	}
	w := &World{
		Inst: inst,
		eps:  make([]*Endpoint, ranks),
	}
	channels := 1
	if cfg.GPU != nil {
		channels = cfg.GPU.Channels
	}
	net := inst.Net
	for r, pl := range inst.Places {
		w.eps[r] = &Endpoint{
			world:    w,
			rank:     r,
			node:     net.NodeIndex(pl.Node),
			host:     net.NodeIndex(pl.Host),
			socket:   pl.Socket,
			chanFree: make([]sim.Time, channels),
		}
	}
	eng, err := sim.NewCoupled(nodeGroups(w.eps, len(net.Nodes())), net.LookaheadBound(), shards)
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	w.eng = eng
	return w, nil
}

// nodeGroups assigns each rank a dense group per fabric node, numbered
// in order of first appearance over the rank sequence. Same group ⟺
// same node ⟺ shared-memory delivery, so every cross-group flight pays
// at least one fabric link and the network's LookaheadBound is a valid
// conservative window for the grouping. The message paths (Inject,
// RemoteAtomic) therefore pick inline or deferred delivery by node and
// never read the partition.
func nodeGroups(eps []*Endpoint, nodes int) []int {
	groupOf := make([]int, len(eps))
	group := make([]int, nodes) // node index -> group + 1 (0: unseen)
	next := 0
	for r, ep := range eps {
		if group[ep.node] == 0 {
			next++
			group[ep.node] = next
		}
		groupOf[r] = group[ep.node] - 1
	}
	return groupOf
}

// route returns the fabric route between two node indices, composed
// over the network's attachment-pair cache.
func (w *World) route(from, to int32) netsim.Route {
	r, err := w.Inst.Net.RouteAt(from, to)
	if err != nil {
		panic(fmt.Sprintf("runtime: %v", err))
	}
	return r
}

// Size returns the number of endpoints (ranks/PEs).
func (w *World) Size() int { return len(w.eps) }

// Groups returns the node-group (sub-engine) count.
func (w *World) Groups() int { return w.eng.Groups() }

// GroupOf returns the node group owning a rank.
func (w *World) GroupOf(rank int) int { return w.eng.GroupOf(rank) }

// Endpoint returns the endpoint for a rank.
func (w *World) Endpoint(rank int) *Endpoint {
	return w.eps[rank]
}

// EngineOf returns the sequential sub-engine owning a rank. Every
// process and condition variable belonging to the rank must bind to
// it; that confinement is what lets groups execute in parallel.
func (w *World) EngineOf(rank int) *sim.Engine { return w.eng.EngineOf(rank) }

// Spawn starts a process owned by rank on the rank's engine.
func (w *World) Spawn(rank int, name string, fn func(*sim.Proc)) {
	w.eng.EngineOf(rank).Spawn(name, fn)
}

// SetChaos installs c on the world. Call before spawning.
func (w *World) SetChaos(c Chaos) {
	w.chaos = c
	w.eng.SetPerturbation(c.Perturb)
	w.Inst.Net.SetFaults(c.Faults)
}

// Chaos returns the chaos installed on the world.
func (w *World) Chaos() Chaos { return w.chaos }

// Run drives the simulation to completion and surfaces deadlocks.
func (w *World) Run() error {
	err := w.eng.Run()
	noteUsage(w)
	return err
}

// Elapsed returns the latest executed-event time across all groups.
func (w *World) Elapsed() sim.Time { return w.eng.Elapsed() }

// Digest folds the per-group event-order digests into one summary of
// the run; equal digests across -shards values certify the worker
// split changed no event order.
func (w *World) Digest() uint64 { return w.eng.Digest() }

// Resumes returns how many times the world's processes were switched
// into (sim.CoupledEngine.Resumes).
func (w *World) Resumes() uint64 { return w.eng.Resumes() }

// Windows returns how many conservative windows the run executed.
func (w *World) Windows() uint64 { return w.eng.Windows() }

// Endpoint is one rank's attachment to the fabric: its placement plus
// a NIC with one or more injection channels, each pacing injections at
// the transport's LogGP gap.
type Endpoint struct {
	world    *World
	rank     int
	chanFree []sim.Time // per-channel earliest next injection
	rr       int        // round-robin cursor for AutoChannel
	// atomicFree serializes remote atomics targeting this endpoint's
	// memory (one at a time at the memory controller). It is mutated
	// only from this endpoint's own engine (owner-computes).
	atomicFree sim.Time
	// node and host are the netsim node indices of the rank's fabric
	// node and of its host-staging node (-1, NodeIndex of the empty
	// name, when it has none); socket is its placement socket.
	node, host int32
	socket     int
	// Free lists of the message-path records (records.go). Each is
	// touched only by this endpoint's group engine or by the serial
	// window barrier, never by two goroutines at once.
	flights         *flight
	landings        *landing
	txns            *atomicTxn
	puts, putsLimbo *putRec
}

// Rank returns the endpoint's rank id.
func (ep *Endpoint) Rank() int { return ep.rank }

// eng returns the sequential engine owning this endpoint's rank.
func (ep *Endpoint) eng() *sim.Engine { return ep.world.eng.EngineOf(ep.rank) }

// Channels returns the number of NIC injection channels.
func (ep *Endpoint) Channels() int { return len(ep.chanFree) }

// AutoChannel returns the next channel in round-robin order; message
// streams that do not care about placement use it to spread load over
// parallel links.
func (ep *Endpoint) AutoChannel() int {
	c := ep.rr
	ep.rr = (ep.rr + 1) % len(ep.chanFree)
	return c
}

// ChargeOp blocks p for one library-operation overhead.
func (ep *Endpoint) ChargeOp(p *sim.Proc, tp machine.TransportParams) {
	p.Sleep(tp.OpOverhead)
}

// Inject sends bytes toward dst on the given channel and schedules
// the delivery callbacks at the arrival time of the last byte, without
// blocking the caller (who charges op overhead via ChargeOp). The
// injection is paced by the transport gap on the chosen channel, then
// the message takes the software pipeline latency plus the fabric (or
// shared-memory) journey.
//
// The two callbacks split the delivery by ownership: `remote` runs on
// dst's engine (target-rank state: memory, receive queues, signals),
// `local` on the sender's at the same timestamp (origin-side
// completion). Either may be nil. When src and dst share a node (so a
// node group) both run, remote first, as one event. Same-node delivery is
// stateless and scheduled at once; a cross-node journey reserves link
// bandwidth, so it is deferred to the window barrier, where all
// reservations apply in the global (at, sender) order.
//
// Inject allocates nothing once the endpoint's records are warm
// (records.go), so callers that pass bound method values rather than
// fresh closures keep the whole message path allocation-free.
func (ep *Endpoint) Inject(tp machine.TransportParams, dst int, bytes int64, ch int, remote, local func(at sim.Time)) {
	if dst < 0 || dst >= ep.world.Size() {
		panic(fmt.Sprintf("runtime: rank %d injecting to invalid destination %d", ep.rank, dst))
	}
	now := ep.eng().Now()
	c := ((ch % len(ep.chanFree)) + len(ep.chanFree)) % len(ep.chanFree)
	start := now
	if ep.chanFree[c] > start {
		start = ep.chanFree[c]
	}
	ep.chanFree[c] = start + tp.Gap

	w := ep.world
	if ep.node == w.eps[dst].node {
		deliver := ep.wireTime(tp, start, dst, bytes, c)
		ep.eng().At(deliver, ep.landing(deliver, remote, local).fire)
		return
	}
	// Cross-group: the wire journey mutates shared link state, so it
	// is computed at the barrier, in deferred-op total order. The
	// delivery lands at least SoftLatency (>> lookahead) past `start`,
	// so scheduling it onto the target group from the barrier can
	// never violate the window bound.
	f := ep.flight()
	f.tp, f.start, f.dst, f.bytes, f.ch = tp, start, dst, bytes, c
	f.remote, f.local = remote, local
	w.eng.Defer(ep.rank, start, f.run)
}

// wireTime computes the arrival time of the last byte at dst for a
// message leaving the NIC at start. The same-node path is stateless;
// cross-node paths reserve link bandwidth and must only run from a
// window barrier.
func (ep *Endpoint) wireTime(tp machine.TransportParams, start sim.Time, dst int, bytes int64, ch int) sim.Time {
	w := ep.world
	to := w.eps[dst]
	if ep.node == to.node {
		// Shared memory: pipeline latency + copy at memory bandwidth.
		return start + tp.SoftLatency + w.Inst.Cfg.MemLatency +
			sim.TransferTime(bytes, w.Inst.Cfg.MemBandwidth)
	}
	lat := tp.SoftLatency
	if tp.CrossSocketExtra > 0 && ep.socket != to.socket {
		lat += tp.CrossSocketExtra
	}
	t := start + lat
	if tp.HostStaged && ep.host >= 0 && to.host >= 0 {
		// Device -> host copy, host-to-host MPI, host -> device copy:
		// three minimal fabric legs, each reserving its links. A leg
		// whose ends coincide (ranks sharing a host) is skipped.
		for _, leg := range [3][2]int32{{ep.node, ep.host}, {ep.host, to.host}, {to.host, to.node}} {
			if leg[0] != leg[1] {
				t = w.route(leg[0], leg[1]).TransferMinimal(t, bytes, ch)
			}
		}
		return t
	}
	return w.route(ep.node, to.node).Transfer(t, bytes, ch)
}

// RemoteAtomic performs a blocking remote atomic on the uint64 at off
// in dst's memory mem and returns the value it held before: a
// compare-and-swap to operand when cas is set, a fetch-and-add of
// operand otherwise. The calling process pays one op overhead, a
// request flight, the remote AtomicTime service (where dst's engine
// updates the word), and the response flight.
//
// Atomic packets are tiny and ride a dedicated queue, bypassing the
// data-path gap. Contention for the remote location is serialized by
// atomicFree on the target's engine (owner-computes), so arbitration
// follows the target group's event order, whatever the worker count.
// Cross-group flights reserve fabric links at the window barrier; the
// response leaves strictly after the word is updated, so no caller sees
// a result before the remote mutation, under any perturbation. The
// transaction is a pooled atomicTxn (records.go).
func (ep *Endpoint) RemoteAtomic(p *sim.Proc, tp machine.TransportParams, dst int, mem *Mem, off int, cas bool, compare, operand uint64) uint64 {
	ep.ChargeOp(p, tp)
	t := ep.atomicTxn()
	t.tp, t.dst, t.fired = tp, dst, false
	t.mem, t.off, t.cas, t.compare, t.operand = mem, off, cas, compare, operand
	w := ep.world
	if ep.node == w.eps[dst].node {
		// Same node, so same node group: flights are intra-group (shared memory or
		// same-node fabric), link-stateless or group-owned; run the
		// whole transaction inline on the shared engine.
		t.arrive = ep.atomicFlight(tp, ep.rank, dst, ep.eng().Now())
		t.runService()
	} else {
		// The request flight reserves links, so it leaves from the
		// barrier in total order.
		t.req = ep.eng().Now()
		w.eng.Defer(ep.rank, t.req, t.request)
	}
	t.done.WaitFor(p, t.isFired)
	t.next, ep.txns = ep.txns, t
	return t.result
}

// atomicFlight times one direction of an atomic transaction from
// rank `from` to rank `to` leaving at `at`. When the transport sets
// AtomicLinkOccupancy, the packet holds each fabric link on the path
// for that long (transaction-rate-limited fabrics); otherwise it
// rides at pure propagation latency.
func (ep *Endpoint) atomicFlight(tp machine.TransportParams, from, to int, at sim.Time) sim.Time {
	w := ep.world
	src, dst := w.eps[from], w.eps[to]
	if src.node == dst.node {
		return at + w.Inst.Cfg.MemLatency
	}
	r := w.route(src.node, dst.node)
	if tp.AtomicLinkOccupancy > 0 {
		return r.TransferPacket(at, tp.AtomicLinkOccupancy, src.AutoChannel())
	}
	return at + r.BaseLatency()
}
