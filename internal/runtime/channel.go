package runtime

import (
	"msgroofline/internal/machine"
	"msgroofline/internal/sim"
)

// Channel is one RAMC-style ordered memory channel from a source
// endpoint to a destination rank: a FIFO byte stream where ordering
// replaces per-op completion. Writes are sequence-numbered at the
// sender; the receiver applies them strictly in sequence order (a
// resequencer stashes overtaking arrivals — fault retransmissions and
// latency spikes legally reorder the wire), so "the bytes arrived"
// means "every earlier byte on this channel arrived too". Quiet and
// fence map to Drain: wait until the channel has no writes in flight.
//
// Each write is a put (Put) whose pooled record the channel keeps
// while it is in flight or stashed. Sender state (sequence counter,
// in-flight count, credit waits) lives on the source rank's engine;
// receiver state (resequencer cursor, stash, FIFO check) only on the
// destination's, inside delivery callbacks. Cross-group writes ride
// Inject's window-barrier deferral, in its (at, sender) total order.
type Channel struct {
	src *Endpoint
	dst int
	tp  machine.TransportParams

	// Sender side (source engine only).
	opened   bool
	nextSeq  uint64
	inFlight int
	cond     *sim.Cond // credit release and drain wakeups

	// Receiver side (destination engine only). nextDeliver counts the
	// writes applied; the first one applied out of sequence order is
	// kept as (badSeq, badPos) for the conformance FIFO oracle.
	nextDeliver    uint64
	pending        map[uint64]*putRec
	misordered     bool
	badSeq, badPos uint64

	// unordered bypasses the resequencer: arrivals apply in wire order.
	// This deliberately breaks the FIFO contract; it exists so the
	// conformance channel-ordering oracle can prove it catches the
	// violation (see internal/conformance).
	unordered bool
}

// NewChannel opens a (lazy) channel from src to rank dst with the
// transport's credit and open-cost parameters.
func NewChannel(src *Endpoint, dst int, tp machine.TransportParams) *Channel {
	return &Channel{
		src:     src,
		dst:     dst,
		tp:      tp,
		cond:    sim.NewCond(src.eng()),
		pending: make(map[uint64]*putRec),
	}
}

// SetUnordered toggles the deliberate FIFO break.
func (c *Channel) SetUnordered(v bool) { c.unordered = v }

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

// arrive runs on the destination engine at wire-arrival time. In
// ordered mode the resequencer lands the write only once every earlier
// sequence number has landed, draining any stashed successors at the
// same instant.
func (c *Channel) arrive(o *putRec, at sim.Time) {
	if c.unordered {
		c.deliver(o, at)
		return
	}
	if o.seq != c.nextDeliver {
		c.pending[o.seq] = o
		return
	}
	c.deliver(o, at)
	for {
		st, ok := c.pending[c.nextDeliver]
		if !ok {
			return
		}
		delete(c.pending, c.nextDeliver)
		c.deliver(st, at)
	}
}

// deliver checks one write's place in sequence order and lands it.
// The origin may reuse the record once it has landed, so nothing
// reads it after.
func (c *Channel) deliver(o *putRec, at sim.Time) {
	if o.seq != c.nextDeliver && !c.misordered {
		c.misordered, c.badSeq, c.badPos = true, o.seq, c.nextDeliver
	}
	c.nextDeliver++
	o.land(at)
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
// pos. After a clean run, applied is Sent() and misordered false, as
// the conformance FIFO oracle checks. Read only after the run.
func (c *Channel) Applied() (applied uint64, misordered bool, seq, pos uint64) {
	return c.nextDeliver, c.misordered, c.badSeq, c.badPos
}
