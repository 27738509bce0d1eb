package runtime

import (
	"sync/atomic"

	"msgroofline/internal/machine"
	"msgroofline/internal/sim"
)

// MsgHook observes a message or put: source, destination, payload size
// (including a ridden signal word), the time the sender issued it and
// the time it was delivered. It runs on the destination's engine, so it
// must be safe under parallel windows.
type MsgHook func(src, dst int, bytes int64, issue, deliver sim.Time)

// Put describes one put into a remote Mem; its payload is passed
// beside it. The payload lands at Off in Dst's Mem and then, when
// Signal is set, SigVal at SigOff, in one landing on Dst's engine that
// calls Hook and broadcasts Wake. The signal word rides the payload
// flight, 8 more bytes on the wire. Done, when set, runs on the
// origin's engine once the put has landed. Issuing a put stages the
// payload, so the caller may reuse it at once.
type Put struct {
	Dst    int
	Mem    *Mem      // Dst's memory
	Wake   *sim.Cond // on Dst's engine
	Off    int
	Signal bool
	SigOff int
	SigVal uint64
	Issue  sim.Time // the issue time Hook sees
	Hook   MsgHook
	Done   func(src, dst int)
}

// Put issues p with payload data now over tp on injection channel ch:
// one Inject whose remote half lands the put and whose local half runs
// p.Done.
func (ep *Endpoint) Put(tp machine.TransportParams, p Put, data []byte, ch int) {
	o := ep.putRec(p, data)
	ep.Inject(tp, p.Dst, o.bytes, ch, o.remote, o.local)
}

// PutAt issues p with payload data at time at, the instant a device
// stream triggers it, and injects it then over *tp on channel ch. The
// record keeps tp, not a copy, so *tp must not change before then.
func (ep *Endpoint) PutAt(tp *machine.TransportParams, p Put, data []byte, ch int, at sim.Time) {
	o := ep.putRec(p, data)
	if o.inject == nil {
		o.inject = o.runInject
	}
	o.tp, o.ch = tp, ch
	ep.eng().At(at, o.inject)
}

// putRec is one put in flight, pooled per origin endpoint. Its remote
// half (land) runs on the target's engine and its local half (retire)
// on the origin's, at the same simulated instant, possibly at once in
// two window workers. So land marks the record landed after its last
// read of it, and retire puts a landed record on the free list and any
// other on the limbo list, which the origin drains when the free list
// runs dry. A channel write may land well after its local half: the
// receiver's resequencer stashes it until every earlier write has
// landed. Both lists are touched only from the origin's engine.
type putRec struct {
	ep *Endpoint // origin
	Put
	buf   []byte // staged payload (nil for a blank one)
	bytes int64  // wire and hook size
	chn   *Channel
	seq   uint64                   // channel sequence number, when chn is set
	tp    *machine.TransportParams // PutAt only
	ch    int

	landed        atomic.Bool
	remote, local func(at sim.Time) // o.arrive and o.retire, bound once
	inject        func()            // o.runInject, bound on first PutAt
	next          *putRec
}

// putRec takes a put record, fills it with p and stages data into it:
// a free record, else a parked one that has since landed, else a new
// one. Only the staged copy is kept, so data does not escape.
func (ep *Endpoint) putRec(p Put, data []byte) *putRec {
	o := ep.puts
	if o == nil {
		for q := &ep.putsLimbo; *q != nil; {
			if r := *q; r.landed.Load() {
				*q = r.next
				r.next, ep.puts = ep.puts, r
			} else {
				q = &r.next
			}
		}
		o = ep.puts
	}
	if o == nil {
		o = &putRec{ep: ep}
		o.remote, o.local = o.arrive, o.retire
	} else {
		ep.puts = o.next
		o.landed.Store(false)
	}
	o.Put, o.buf, o.chn = p, Stage(data), nil
	o.bytes = int64(len(data))
	if p.Signal {
		o.bytes += 8
	}
	return o
}

func (o *putRec) runInject() { o.ep.Inject(*o.tp, o.Dst, o.bytes, o.ch, o.remote, o.local) }

// arrive is the remote half: a channel write goes through the
// receiver's resequencer, any other put lands at once.
func (o *putRec) arrive(at sim.Time) {
	if o.chn != nil {
		o.chn.arrive(o, at)
		return
	}
	o.land(at)
}

// land writes the put into the target Mem on the target's engine.
func (o *putRec) land(at sim.Time) {
	o.Mem.Land(o.Off, o.buf)
	if o.Signal {
		o.Mem.Store(o.SigOff, o.SigVal)
	}
	if o.Hook != nil {
		o.Hook(o.ep.rank, o.Dst, o.bytes, o.Issue, at)
	}
	wake := o.Wake
	// The origin may reuse the record as soon as it reads landed.
	o.landed.Store(true)
	if wake != nil {
		wake.Broadcast()
	}
}

// retire is the local half, on the origin's engine: release the
// channel credit, run the issuer's completion, then return the record.
func (o *putRec) retire(sim.Time) {
	ep := o.ep
	if c := o.chn; c != nil {
		c.inFlight--
		c.cond.Broadcast()
	}
	if o.Done != nil {
		o.Done(ep.rank, o.Dst)
	}
	if o.landed.Load() {
		o.next, ep.puts = ep.puts, o
	} else {
		o.next, ep.putsLimbo = ep.putsLimbo, o
	}
}
