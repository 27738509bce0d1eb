// Package mpi provides simulated two-sided MPI: tag-matched
// nonblocking sends and receives (Isend/Irecv/Recv/Wait/Waitall) with
// an eager protocol and an unexpected-message queue, plus a
// dissemination Barrier whose rounds are real 1-byte messages (so
// synchronization pays realistic latency) that land as counted round
// signals, not through matching: internal/runtime's Barrier, which
// shmem shares. One-sided MPI (MPI-3 RMA: Put, Win_flush,
// Win_flush_local, Win_fence and the atomics) is internal/shmem's
// OneSided issue path, on the same PGAS core as the other put-based
// transports.
//
// All costs (per-op overhead, injection gap, software latency, wire
// time, link contention) come from the machine's calibrated transport
// parameters via internal/runtime; this package only implements
// semantics and charges the costs in the right places.
package mpi

import (
	"fmt"

	"msgroofline/internal/machine"
	"msgroofline/internal/runtime"
	"msgroofline/internal/sim"
)

// Wildcards for Recv/Irecv matching.
const (
	// AnySource matches a message from any rank.
	AnySource = -1
	// AnyTag matches a message with any tag.
	AnyTag = -1
)

// Comm is a communicator spanning every rank of a simulated world.
type Comm struct {
	world *runtime.World
	two   machine.TransportParams
	ranks []*Rank
	// sendHook, when set, observes every two-sided message at delivery
	// time (barrier rounds are not messages and are not seen).
	sendHook runtime.MsgHook
}

// SetSendHook installs a hook observing two-sided messages at
// delivery. Call before Launch.
func (c *Comm) SetSendHook(h runtime.MsgHook) { c.sendHook = h }

// NewCommSharded builds a communicator with n ranks on the named
// machine configuration, its world running windows on up to shards
// workers (see runtime.NewWorldSharded; results are byte-identical at
// every shard count). The machine must offer two-sided MPI.
func NewCommSharded(cfg *machine.Config, n, shards int) (*Comm, error) {
	two, ok := cfg.Params(machine.TwoSided)
	if !ok {
		return nil, fmt.Errorf("mpi: machine %s has no two-sided transport", cfg.Name)
	}
	w, err := runtime.NewWorldSharded(cfg, n, shards)
	if err != nil {
		return nil, err
	}
	c := &Comm{world: w, two: two}
	for r := 0; r < n; r++ {
		c.ranks = append(c.ranks, &Rank{comm: c, id: r, ep: w.Endpoint(r), arrived: sim.NewCond(w.EngineOf(r))})
	}
	bars := runtime.NewBarriers(w, runtime.BarrierCost{TP: two, Bytes: 1, RecvOp: true},
		func(r int) *sim.Cond { return c.ranks[r].arrived }, nil)
	for r, b := range bars {
		c.ranks[r].bar = b
	}
	return c, nil
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return len(c.ranks) }

// World exposes the underlying simulated world (for stats and
// engine-level inspection).
func (c *Comm) World() *runtime.World { return c.world }

// Digest folds the per-group event-order digests of the underlying
// world into one summary of the run (see runtime.World.Digest).
func (c *Comm) Digest() uint64 { return c.world.Digest() }

// Launch spawns one simulated process per rank running body and
// drives the simulation to completion. It returns the engine error
// (nil, or a deadlock report naming the stuck ranks).
func (c *Comm) Launch(body func(r *Rank)) error {
	for _, r := range c.ranks {
		rank := r
		c.world.Spawn(rank.id, fmt.Sprintf("rank%d", rank.id), func(p *sim.Proc) {
			rank.proc = p
			body(rank)
		})
	}
	return c.world.Run()
}

// Elapsed returns the simulated time consumed so far.
func (c *Comm) Elapsed() sim.Time { return c.world.Elapsed() }

// Rank is one MPI process. All methods must be called from the rank's
// own simulated process (inside the Launch body).
type Rank struct {
	comm *Comm
	id   int
	ep   *runtime.Endpoint
	proc *sim.Proc

	arrived    *sim.Cond   // signaled on message delivery to this rank
	unexpected []*envelope // delivered but unmatched messages, FIFO
	posted     []*Request  // posted receives not yet matched, FIFO

	// Non-overtaking. MPI guarantees messages between one (source,
	// destination) pair match in send order; the fault-injected network
	// may deliver them out of order (a retransmitted message is legally
	// overtaken). sendSeq[d] numbers sends to rank d, and recv[s] is the
	// resequencer (runtime.Order) of arrivals from rank s. Both hold
	// only the peers this rank has exchanged messages with, so per-rank
	// state stays O(peers) and the world O(ranks), and each is made on
	// first use, never for a rank that only synchronizes.
	sendSeq map[int]uint64
	recv    map[int]*runtime.Order[*envelope]

	bar *runtime.Barrier
	// envs is the free list of pooled envelopes, nenvs long, touched
	// only from this rank's engine: taken to send, returned once matched.
	envs  *envelope
	nenvs int
}

// envelope is a two-sided message: in flight, then delivered and
// awaiting a matching recv. Envelopes are pooled (see Rank.envelope).
type envelope struct {
	src, tag int
	seq      uint64 // per-(src, dst) send order, for resequencing
	data     []byte
	at       sim.Time

	to    *Rank             // receiving rank
	issue sim.Time          // send time, for the hook
	land  func(at sim.Time) // env.arrive, bound once
	next  *envelope
}

// Rank returns this process's rank id.
func (r *Rank) Rank() int { return r.id }

// Size returns the communicator size.
func (r *Rank) Size() int { return r.comm.Size() }

// Now returns the current simulated time.
func (r *Rank) Now() sim.Time { return r.proc.Now() }

// Compute blocks the rank for d of local computation.
func (r *Rank) Compute(d sim.Time) { r.proc.Sleep(d) }

// PendingUnexpected returns the number of delivered-but-unmatched
// messages queued at this rank (conformance oracles check it drains).
func (r *Rank) PendingUnexpected() int { return len(r.unexpected) }

// PendingPosted returns the number of posted receives not yet matched.
func (r *Rank) PendingPosted() int { return len(r.posted) }

// PendingOutOfOrder returns the number of arrivals held back by the
// non-overtaking resequencer (always zero on an in-order network).
func (r *Rank) PendingOutOfOrder() int {
	n := 0
	for _, o := range r.recv {
		n += o.Pending()
	}
	return n
}

// Barrier synchronizes all ranks with a dissemination barrier of
// ceil(log2(P)) rounds, each a real 1-byte message, so its cost scales
// like log(P) x latency exactly as a software MPI_Barrier does. A
// round charges a send and a receive post like Isend+Irecv, but its
// message lands as a counted round signal (runtime.Barrier) on its
// own context: no tag matching, sequence number or request.
func (r *Rank) Barrier() { r.bar.Wait(r.proc) }
