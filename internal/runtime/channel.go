package runtime

import (
	"msgroofline/internal/machine"
	"msgroofline/internal/sim"
)

// Channel is one RAMC-style ordered memory channel from a source
// endpoint to a destination rank: a FIFO byte stream where ordering
// replaces per-op completion. Writes are sequence-numbered at the
// sender; the receiver's resequencer (Order) applies them strictly in
// sequence order, stashing overtaking arrivals (fault retransmissions
// and latency spikes legally reorder the wire), so "the bytes arrived"
// means "every earlier byte on this channel arrived too". Quiet and
// fence map to Drain: wait until the channel has no writes in flight.
//
// Each write is a put (Put) whose pooled record the channel keeps
// while it is in flight or stashed. Sender state (sequence counter,
// in-flight count, credit waits) lives on the source rank's engine;
// receiver state (the resequencer) only on the destination's, inside
// delivery callbacks. Cross-group writes ride Inject's window-barrier
// deferral, in its (at, sender) total order.
type Channel struct {
	src *Endpoint
	dst int
	tp  machine.TransportParams

	// Sender side (source engine only).
	opened   bool
	nextSeq  uint64
	inFlight int
	cond     *sim.Cond // credit release and drain wakeups

	recv *Order[*putRec] // receiver side (destination engine only)
}

// NewChannel opens a (lazy) channel from src to rank dst with the
// transport's credit and open-cost parameters.
func NewChannel(src *Endpoint, dst int, tp machine.TransportParams) *Channel {
	return &Channel{
		src:  src,
		dst:  dst,
		tp:   tp,
		cond: sim.NewCond(src.eng()),
		recv: NewOrder[*putRec](src.world),
	}
}

// Dst returns the destination rank.
func (c *Channel) Dst() int { return c.dst }

// Put writes put, with payload data, toward the channel's destination
// on injection channel ch. It stages data, charges one op (ordering
// subsumes completion ops), pays the channel-open cost on first use,
// waits for a send credit when the transport bounds in-flight writes,
// and injects nonblockingly. The put lands when the write is applied:
// in channel order, after every earlier write, which may be later than
// its wire arrival. Its local half releases the credit and runs Done.
func (c *Channel) Put(p *sim.Proc, put Put, data []byte, ch int) {
	o := c.src.putRec(put, data)
	c.src.ChargeOp(p, c.tp)
	if !c.opened {
		c.opened = true
		p.Sleep(c.tp.ChannelOpen)
	}
	if cr := c.tp.ChannelCredits; cr > 0 {
		c.cond.WaitFor(p, func() bool { return c.inFlight < cr })
	}
	o.chn, o.seq = c, c.nextSeq
	c.nextSeq++
	c.inFlight++
	c.src.Inject(c.tp, c.dst, o.bytes, ch, o.remote, o.local)
}

// arrive runs on the destination engine at wire-arrival time: the
// write lands once every earlier one has, with any stashed successors
// it unblocks landing at the same instant.
func (c *Channel) arrive(o *putRec, at sim.Time) {
	c.recv.Arrive(o.seq, o, func(o *putRec) { o.land(at) })
}

// Drain blocks until the channel has no writes in flight — the
// transport's quiet/fence primitive. One op overhead models the
// tail-check doorbell read.
func (c *Channel) Drain(p *sim.Proc) {
	c.src.ChargeOp(p, c.tp)
	c.cond.WaitFor(p, func() bool { return c.inFlight == 0 })
}

// Sent returns how many writes entered the channel.
func (c *Channel) Sent() uint64 { return c.nextSeq }

// Applied returns how many writes the receiver has applied and whether
// any was misordered, the first such write seq applied at position
// pos (Order.Landed). After a clean run, applied is Sent() and
// misordered false, as the conformance FIFO oracle checks. Read only
// after the run.
func (c *Channel) Applied() (applied uint64, misordered bool, seq, pos uint64) {
	return c.recv.Landed()
}
