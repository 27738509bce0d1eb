package runtime

import (
	"math/bits"

	"msgroofline/internal/machine"
	"msgroofline/internal/sim"
)

// BarrierCost is what each round of a dissemination barrier charges
// and sends. RecvOp charges a second op per round, after the send: the
// receive post of MPI's software barrier, which on one rank is still a
// call and charges one op.
type BarrierCost struct {
	TP     machine.TransportParams
	Bytes  int64
	RecvOp bool
}

// Barrier is one rank's side of a dissemination barrier over every
// rank of a world, which MPI's Barrier and SHMEM's barrier_all share:
// round r of ⌈log2 P⌉ charges an op, signals rank me+2^r and waits for
// the signal of rank me-2^r.
//
// Round r has exactly one sender, and it sends exactly one round-r
// signal per barrier, so in[r] counts the round-r signals that have
// landed and barrier g leaves round r once that count is at least g.
// A count of g means the sender has entered barrier g, whatever order
// its signals landed in, which is what MPI's non-overtaking matching
// tells a dissemination barrier over messages. Signals carry no
// generation, sequence number or record, and need no order among
// themselves or with other traffic.
type Barrier struct {
	ep    *Endpoint
	all   []*Barrier // every rank's, by rank
	cost  *BarrierCost
	wake  *sim.Cond // broadcast when a signal lands here
	in    []inbox   // by round
	gen   uint64
	round int         // the round Wait waits on
	ready func() bool // b.signalled, bound once
	// With a quiesced cond, a signal stays in flight until its local
	// half, which broadcasts quiesced (SHMEM's quiet waits for them).
	quiesced *sim.Cond
	inFlight int
	retire   func(sim.Time) // b.complete, bound once
}

// inbox counts one round's signals at one rank, on that rank's engine.
// The round's sender sets wake and land before its first signal; the
// landings only read them.
type inbox struct {
	count uint64
	wake  *sim.Cond      // the rank's
	land  func(sim.Time) // in.arrive
}

// NewBarriers builds the barrier of every rank of w. A signal landing
// at rank r broadcasts wake(r); with quiesced, each of r's signals
// stays in flight until its local completion broadcasts quiesced(r).
func NewBarriers(w *World, cost BarrierCost, wake, quiesced func(rank int) *sim.Cond) []*Barrier {
	n := w.Size()
	rounds := bits.Len(uint(n - 1))
	all, bs, in := make([]*Barrier, n), make([]Barrier, n), make([]inbox, n*rounds)
	for r := range all {
		b := &bs[r]
		*b = Barrier{ep: w.eps[r], all: all, cost: &cost, wake: wake(r), in: in[r*rounds : (r+1)*rounds]}
		b.ready = b.signalled
		if quiesced != nil {
			b.quiesced, b.retire = quiesced(r), b.complete
		}
		all[r] = b
	}
	return all
}

// Wait enters the rank's next barrier from p, the rank's process, and
// returns once every rank has entered it.
func (b *Barrier) Wait(p *sim.Proc) {
	ep, c, n := b.ep, b.cost, len(b.all)
	if n == 1 && c.RecvOp {
		ep.ChargeOp(p, c.TP)
	}
	b.gen++
	for r, k := 0, 1; k < n; r, k = r+1, k<<1 {
		ep.ChargeOp(p, c.TP)
		to := b.all[(ep.rank+k)%n]
		in := &to.in[r]
		if in.land == nil {
			in.wake, in.land = to.wake, in.arrive
		}
		if b.quiesced != nil {
			b.inFlight++
		}
		ep.Inject(c.TP, to.ep.rank, c.Bytes, ep.AutoChannel(), in.land, b.retire)
		if c.RecvOp {
			ep.ChargeOp(p, c.TP)
		}
		b.round = r
		b.wake.WaitFor(p, b.ready)
	}
}

// InFlight returns how many of this rank's signals have not completed
// locally (always zero without a quiesced cond).
func (b *Barrier) InFlight() int { return b.inFlight }

func (b *Barrier) signalled() bool { return b.in[b.round].count >= b.gen }

func (b *Barrier) complete(sim.Time) {
	b.inFlight--
	b.quiesced.Broadcast()
}

func (in *inbox) arrive(sim.Time) {
	in.count++
	in.wake.Broadcast()
}
