package comm

import (
	"msgroofline/internal/mpi"
	"msgroofline/internal/sim"
)

// twoSided delegates to internal/mpi point-to-point: Isend/Irecv/
// Waitall exchange, eager streamed sends received with
// Recv(ANY_SOURCE), and the broadcast fallback for remote updates.
type twoSided struct {
	base
	c *mpi.Comm
}

func newTwoSided(spec Spec) (*twoSided, error) {
	c, err := mpi.NewCommSharded(spec.Machine, spec.Ranks, spec.Shards)
	if err != nil {
		return nil, err
	}
	c.World().SetChaos(spec.Chaos)
	t := &twoSided{base: base{spec: spec}, c: c}
	if rec := t.attachTrace(); rec != nil {
		c.SetSendHook(rec.Record)
	}
	return t, nil
}

func (t *twoSided) Kind() Kind             { return TwoSided }
func (t *twoSided) Caps() Caps             { return Caps{} }
func (t *twoSided) Digest() uint64         { return t.c.Digest() }
func (t *twoSided) Elapsed() sim.Time      { return t.c.Elapsed() }
func (t *twoSided) SharedBytes(int) []byte { return nil }
func (t *twoSided) AtomicCount() int64     { return 0 }

func (t *twoSided) Launch(body func(Endpoint)) error {
	return t.c.Launch(func(r *mpi.Rank) { body(&tsEp{t: t, r: r}) })
}

type tsEp struct {
	t    *twoSided
	r    *mpi.Rank
	reqs []*mpi.Request // Exchange's receives then sends, reused
	out  [][]byte       // Exchange's result, reused
}

func (e *tsEp) Rank() int          { return e.r.Rank() }
func (e *tsEp) Size() int          { return e.t.spec.Ranks }
func (e *tsEp) Caps() Caps         { return Caps{} }
func (e *tsEp) Now() sim.Time      { return e.r.Now() }
func (e *tsEp) Compute(d sim.Time) { e.r.Compute(d) }
func (e *tsEp) Barrier()           { e.r.Barrier() }

// Quiet is a no-op: eager sends buffer at the origin and complete
// without local waiting, so there is nothing to drain (and MPI
// charges no operation for it).
func (e *tsEp) Quiet() {}

// Exchange posts every expected receive, then every send, and closes
// the epoch with Waitall. Tags encode (epoch, receive slot), which
// both sides derive identically.
func (e *tsEp) Exchange(epoch int, sends []Msg, recvs []Expect) [][]byte {
	k := e.t.spec.ExchangeSlots
	e.reqs = e.reqs[:0]
	for _, x := range recvs {
		e.reqs = append(e.reqs, e.r.Irecv(x.Peer, epoch*k+x.Slot))
	}
	for _, m := range sends {
		e.reqs = append(e.reqs, e.r.Isend(m.Peer, epoch*k+m.Slot, m.Data))
	}
	e.r.Waitall(e.reqs)
	e.t.sync()
	e.out = e.out[:0]
	for _, rq := range e.reqs[:len(recvs)] {
		e.out = append(e.out, rq.Data)
	}
	return e.out
}

// Deliver is one eager Isend tagged with the receiver-side slot.
func (e *tsEp) Deliver(peer, slot int, data []byte) {
	e.r.Isend(peer, slot, data)
}

// WaitAnySlot receives the next message with ANY_SOURCE/ANY_TAG; the
// tag carries the slot index.
func (e *tsEp) WaitAnySlot() (int, []byte) {
	req := e.r.Recv(mpi.AnySource, mpi.AnyTag)
	e.t.sync() // one message per synchronization (Table II)
	return req.Tag, req.Data
}

func (e *tsEp) CAS(int, int, uint64, uint64) uint64 {
	panic("comm: two-sided transport has no remote atomics (gate on Caps().Atomics)")
}

func (e *tsEp) FetchAdd(int, int, uint64) uint64 {
	panic("comm: two-sided transport has no remote atomics (gate on Caps().Atomics)")
}

func (e *tsEp) FlushLocal(int) {
	panic("comm: two-sided transport has no RMA to flush (gate on Caps().Atomics)")
}

func (e *tsEp) Lanes(int) int { return 1 }

func (e *tsEp) ForkJoin(lanes int, body func(Endpoint, int)) {
	for i := 0; i < lanes; i++ {
		body(e, i)
	}
}

// BcastPut fans one payload out to every other rank (the paper's
// two-sided hashtable round, P-1 messages per insert).
func (e *tsEp) BcastPut(data []byte) {
	me := e.r.Rank()
	for d := 0; d < e.t.spec.Ranks; d++ {
		if d != me {
			e.r.Isend(d, 0, data)
		}
	}
}

// CollectPuts drains the Size()-1 payloads of one broadcast round in
// arrival order and marks the round's synchronization.
func (e *tsEp) CollectPuts() [][]byte {
	p := e.t.spec.Ranks
	out := make([][]byte, 0, p-1)
	for got := 0; got < p-1; got++ {
		req := e.r.Recv(mpi.AnySource, mpi.AnyTag)
		out = append(out, req.Data)
	}
	e.t.sync() // one insert round = one synchronization
	return out
}
