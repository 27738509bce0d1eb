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
// signal per barrier, so a round-r inbox counts the round-r signals
// that have landed and barrier g leaves round r once that count is at
// least g. A count of g means the sender has entered barrier g,
// whatever order its signals landed in, which is what MPI's
// non-overtaking matching tells a dissemination barrier over messages.
// Signals carry no generation, sequence number or record, and need no
// order among themselves or with other traffic.
//
// The rounds run as wakeups of the rank's process (sim.Proc.Await),
// not in its coroutine: Wait parks the process once, each op charge
// and each landing that wakes it runs advance in its event, and the
// body resumes when the last round is signalled. advance makes the
// schedule calls of a round loop that sleeps for each op and waits
// on the signal, so the events are the same. The world's inboxes are
// one slab, by round then rank, so a round reaches its peer's inbox
// by index, and ranks that run next to each other touch neighbouring
// inboxes.
type Barrier struct {
	ep      *Endpoint
	all     []*Barrier // every rank's, by rank; read when a round's inbox is first bound
	cost    *BarrierCost
	wake    *sim.Cond // broadcast when a signal lands here
	in      []inbox   // the world's, by round then rank
	gen     uint64
	round   int         // the round Wait is in
	sending bool        // the next wakeup ends the round's send op
	proc    *sim.Proc   // the rank's process, in Wait
	step    func() bool // b.advance, bound once
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
	all, bs, in := make([]*Barrier, n), make([]Barrier, n), make([]inbox, n*bits.Len(uint(n-1)))
	for r := range all {
		b := &bs[r]
		*b = Barrier{ep: w.eps[r], all: all, cost: &cost, wake: wake(r), in: in}
		b.step = b.advance
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
	b.gen++
	if len(b.all) == 1 {
		if b.cost.RecvOp {
			b.ep.ChargeOp(p, b.cost.TP)
		}
		return
	}
	b.proc, b.round, b.sending = p, 0, true
	p.WakeAfter(b.cost.TP.OpOverhead)
	p.Await(b.step)
}

// advance runs one wakeup of the rank's process in Wait and reports
// whether the barrier is done. The wakeup that ends a round's send op
// signals the peer and, with RecvOp, charges the receive op; the next
// wakeup checks the round's inbox, enlisting on wake until the round
// is signalled, and then charges the next round's send op.
func (b *Barrier) advance() bool {
	c, n, me := b.cost, len(b.all), b.ep.rank
	if b.sending {
		b.sending = false
		dst := (me + 1<<b.round) % n
		in := &b.in[b.round*n+dst]
		if in.land == nil {
			in.wake, in.land = b.all[dst].wake, in.arrive
		}
		if b.quiesced != nil {
			b.inFlight++
		}
		b.ep.Inject(c.TP, dst, c.Bytes, b.ep.AutoChannel(), in.land, b.retire)
		if c.RecvOp {
			b.proc.WakeAfter(c.TP.OpOverhead)
			return false
		}
	}
	if !b.signalled() {
		b.wake.Enlist(b.proc)
		return false
	}
	if b.round++; 1<<b.round >= n {
		return true
	}
	b.sending = true
	b.proc.WakeAfter(c.TP.OpOverhead)
	return false
}

// InFlight returns how many of this rank's signals have not completed
// locally (always zero without a quiesced cond).
func (b *Barrier) InFlight() int { return b.inFlight }

func (b *Barrier) signalled() bool { return b.in[b.round*len(b.all)+b.ep.rank].count >= b.gen }

func (b *Barrier) complete(sim.Time) {
	b.inFlight--
	b.quiesced.Broadcast()
}

func (in *inbox) arrive(sim.Time) {
	in.count++
	in.wake.Broadcast()
}
