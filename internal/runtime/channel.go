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
// Ownership is split exactly like the runtime's other primitives:
// sender state (sequence counter, in-flight count, credit waits) lives
// on the source rank's engine; receiver state (resequencer cursor,
// stash, arrival log) is touched only inside Inject delivery callbacks
// on the destination rank's engine. Cross-group sends ride Inject's
// window-barrier deferral and therefore serialize in the established
// (at, senderRank<<40|senderCounter) order.
type Channel struct {
	src *Endpoint
	dst int
	tp  machine.TransportParams

	// Sender side (source engine only).
	opened   bool
	nextSeq  uint64
	inFlight int
	cond     *sim.Cond // credit release and drain wakeups

	// Receiver side (destination engine only).
	nextDeliver uint64
	pending     map[uint64]stashed
	arrivals    []uint64 // seqs in application (post-resequencer) order

	// unordered bypasses the resequencer: arrivals apply in wire order.
	// This deliberately breaks the FIFO contract; it exists so the
	// conformance channel-ordering oracle can prove it catches the
	// violation (see internal/conformance).
	unordered bool
}

type stashed struct {
	apply func(at sim.Time)
}

// NewChannel opens a (lazy) channel from src to rank dst with the
// transport's credit and open-cost parameters.
func NewChannel(src *Endpoint, dst int, tp machine.TransportParams) *Channel {
	return &Channel{
		src:     src,
		dst:     dst,
		tp:      tp,
		cond:    sim.NewCond(src.eng()),
		pending: make(map[uint64]stashed),
	}
}

// SetUnordered toggles the deliberate FIFO break.
func (c *Channel) SetUnordered(v bool) { c.unordered = v }

// Dst returns the destination rank.
func (c *Channel) Dst() int { return c.dst }

// Send writes one message into the channel: charges the per-op
// overhead (one op per message — ordering subsumes completion ops),
// pays the one-time channel-open cost on first use, waits for a send
// credit when the transport bounds in-flight writes, and injects the
// bytes nonblockingly. apply runs on the destination engine when the
// write is *applied* — in channel order, after every earlier write on
// this channel — which may be later than its wire arrival.
func (c *Channel) Send(p *sim.Proc, bytes int64, ch int, apply func(at sim.Time)) {
	c.src.ChargeOp(p, c.tp)
	if !c.opened {
		c.opened = true
		p.Sleep(c.tp.ChannelOpen)
	}
	if cr := c.tp.ChannelCredits; cr > 0 {
		c.cond.WaitFor(p, func() bool { return c.inFlight < cr })
	}
	seq := c.nextSeq
	c.nextSeq++
	c.inFlight++
	c.src.Inject(c.tp, c.dst, bytes, ch,
		func(at sim.Time) { c.arrive(seq, at, apply) },
		func(at sim.Time) {
			c.inFlight--
			c.cond.Broadcast()
		})
}

// arrive runs on the destination engine at wire-arrival time. In
// ordered mode the resequencer applies the write only once every
// earlier sequence number has been applied, draining any stashed
// successors at the same instant.
func (c *Channel) arrive(seq uint64, at sim.Time, apply func(at sim.Time)) {
	if c.unordered {
		c.deliver(seq, at, apply)
		return
	}
	if seq != c.nextDeliver {
		c.pending[seq] = stashed{apply: apply}
		return
	}
	c.deliver(seq, at, apply)
	c.nextDeliver++
	for {
		st, ok := c.pending[c.nextDeliver]
		if !ok {
			return
		}
		delete(c.pending, c.nextDeliver)
		c.deliver(c.nextDeliver, at, st.apply)
		c.nextDeliver++
	}
}

func (c *Channel) deliver(seq uint64, at sim.Time, apply func(at sim.Time)) {
	c.arrivals = append(c.arrivals, seq)
	if apply != nil {
		apply(at)
	}
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

// Arrivals returns the applied sequence numbers in application order.
// After a clean (ordered) run this is exactly 0..Sent()-1; the
// conformance FIFO oracle checks precisely that. Read only after the
// world has run to completion.
func (c *Channel) Arrivals() []uint64 { return c.arrivals }
