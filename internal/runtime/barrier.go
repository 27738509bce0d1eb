package runtime

import (
	"math/bits"
	"sync/atomic"

	"msgroofline/internal/machine"
	"msgroofline/internal/sim"
)

// BarrierCost is what each round of a dissemination barrier charges
// and sends. RecvOp charges a second op per round, after the send: the
// receive post of MPI's software barrier.
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
// Round r has exactly one sender, so sig[r] holds the newest barrier
// generation that sender has signalled, and a landing stores the
// maximum. The sender only reaches barrier b+1 after finishing barrier
// b, so a newer generation also vouches for every older one, and a late
// signal of an older barrier never lowers it. Signals need no sequence
// numbers or matching, and no order among themselves or with other
// traffic.
type Barrier struct {
	ep    *Endpoint
	all   []*Barrier // every rank's, by rank
	cost  *BarrierCost
	wake  *sim.Cond // broadcast when a signal lands here
	sig   []uint64
	gen   uint64
	round int         // the round Wait waits on
	ready func() bool // b.signalled, bound once
	// With a quiesced cond, a signal stays in flight until its local
	// half, which broadcasts quiesced (SHMEM's quiet waits for them).
	quiesced *sim.Cond
	inFlight int
	retire   func(sim.Time) // b.complete, bound once
	sent     *barSignal     // every signal record this rank has made
}

// NewBarriers builds the barrier of every rank of w. A signal landing
// at rank r broadcasts wake(r); with quiesced, each of r's signals
// stays in flight until its local completion broadcasts quiesced(r).
func NewBarriers(w *World, cost BarrierCost, wake, quiesced func(rank int) *sim.Cond) []*Barrier {
	n := w.Size()
	rounds := bits.Len(uint(n - 1))
	all, bs, sig := make([]*Barrier, n), make([]Barrier, n), make([]uint64, n*rounds)
	for r := range all {
		b := &bs[r]
		*b = Barrier{ep: w.eps[r], all: all, cost: &cost, wake: wake(r), sig: sig[r*rounds : (r+1)*rounds]}
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
	b.gen++
	for r, k := 0, 1; k < n; r, k = r+1, k<<1 {
		ep.ChargeOp(p, c.TP)
		s := b.signal()
		s.to, s.round, s.gen = b.all[(ep.rank+k)%n], r, b.gen
		if b.quiesced != nil {
			b.inFlight++
		}
		ep.Inject(c.TP, s.to.ep.rank, c.Bytes, ep.AutoChannel(), s.land, b.retire)
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

func (b *Barrier) signalled() bool { return b.sig[b.round] >= b.gen }

func (b *Barrier) complete(sim.Time) {
	b.inFlight--
	b.quiesced.Broadcast()
}

// barSignal is one round signal. It lands on the target's engine,
// possibly while its origin runs in another window worker, so, as with
// putRec, the origin reuses it only once it reads landed.
type barSignal struct {
	to     *Barrier
	round  int
	gen    uint64
	landed atomic.Bool
	land   func(sim.Time) // s.arrive, bound once
	next   *barSignal
}

// signal returns the first landed record on the sent list, or a new
// one at its head.
func (b *Barrier) signal() *barSignal {
	s := b.sent
	for s != nil && !s.landed.Load() {
		s = s.next
	}
	if s == nil {
		s = &barSignal{next: b.sent}
		s.land = s.arrive
		b.sent = s
	}
	s.landed.Store(false)
	return s
}

func (s *barSignal) arrive(sim.Time) {
	to := s.to
	to.sig[s.round] = max(to.sig[s.round], s.gen)
	// The origin may reuse the record as soon as it reads landed.
	s.landed.Store(true)
	to.wake.Broadcast()
}
