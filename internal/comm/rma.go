package comm

import (
	"msgroofline/internal/mpi"
	"msgroofline/internal/sim"
)

// oneWord is the signal payload of the strict protocol's second put.
var oneWord = []byte{1, 0, 0, 0, 0, 0, 0, 0}

// rma delegates to internal/mpi RMA under the paper's strict
// discipline (§III, k=4): fence epochs for exchange; the 4-op put data
// / flush / put signal / flush protocol plus Listing-1 signal polling
// for streams; CAS/fetch-add with per-op flush_local for atomics.
type rma struct {
	base
	c *mpi.Comm

	exchWin *mpi.Win // exchange mode: 2 parities x K slots
	dataWin *mpi.Win // stream mode: data slots
	sigWin  *mpi.Win // stream mode: signal words
	heapWin *mpi.Win // shared mode: raw atomics heap
}

func newRMA(spec Spec) (*rma, error) {
	c, err := mpi.NewCommSharded(spec.Machine, spec.Ranks, spec.Shards)
	if err != nil {
		return nil, err
	}
	spec.applyChaos(c.World(), c.World().Inst.Net)
	t := &rma{base: base{spec: spec}, c: c}
	// The trace tap goes on whichever window carries payload puts;
	// protocol-overhead signal puts (sigWin) are charged, not traced.
	var tapWin *mpi.Win
	switch {
	case spec.ExchangeSlots > 0:
		if t.exchWin, err = c.NewWin(2 * spec.ExchangeSlots * spec.SlotBytes); err != nil {
			return nil, err
		}
		tapWin = t.exchWin
	case spec.StreamSlots != nil:
		dataSizes := make([]int, spec.Ranks)
		sigSizes := make([]int, spec.Ranks)
		for r := range dataSizes {
			dataSizes[r] = spec.SlotBytes * spec.StreamSlots[r]
			sigSizes[r] = 8 * spec.StreamSlots[r]
		}
		if t.dataWin, err = c.NewWinSizes(dataSizes); err != nil {
			return nil, err
		}
		if t.sigWin, err = c.NewWinSizes(sigSizes); err != nil {
			return nil, err
		}
		tapWin = t.dataWin
	case spec.SharedBytes > 0:
		if t.heapWin, err = c.NewWin(spec.SharedBytes); err != nil {
			return nil, err
		}
		tapWin = t.heapWin
	}
	if rec := t.attachTrace(); rec != nil {
		tapWin.SetHook(rec.Record)
	}
	return t, nil
}

func (t *rma) Kind() Kind        { return OneSided }
func (t *rma) Caps() Caps        { return Caps{Atomics: true} }
func (t *rma) Digest() uint64    { return t.c.Digest() }
func (t *rma) Elapsed() sim.Time { return t.c.Elapsed() }

func (t *rma) SharedBytes(rank int) []byte {
	if t.heapWin == nil {
		return nil
	}
	return t.heapWin.Local(rank)
}

func (t *rma) AtomicCount() int64 {
	if t.heapWin == nil {
		return 0
	}
	_, atomics := t.heapWin.OpStats()
	return atomics
}

func (t *rma) Launch(body func(Endpoint)) error {
	return t.c.Launch(func(r *mpi.Rank) {
		ep := &rmaEp{t: t, r: r}
		if t.spec.StreamSlots != nil {
			ep.expected = t.spec.StreamSlots[r.Rank()]
			ep.mask = make([]bool, ep.expected)
		}
		body(ep)
	})
}

type rmaEp struct {
	t *rma
	r *mpi.Rank

	// Streamed-delivery receive state.
	expected int
	mask     []bool
	got      int
	out      [][]byte // Exchange's result, reused
}

func (e *rmaEp) Rank() int          { return e.r.Rank() }
func (e *rmaEp) Size() int          { return e.t.spec.Ranks }
func (e *rmaEp) Caps() Caps         { return e.t.Caps() }
func (e *rmaEp) Now() sim.Time      { return e.r.Now() }
func (e *rmaEp) Compute(d sim.Time) { e.r.Compute(d) }
func (e *rmaEp) Barrier()           { e.r.Barrier() }

// Quiet is a no-op: the strict protocol flushes every delivery at
// issue time, so there is never outstanding local state to drain (and
// no op to charge).
func (e *rmaEp) Quiet() {}

// Exchange runs one epoch against the parity-double-buffered window
// and closes it with a fence (Put x sends + MPI_Win_fence, §III-A).
func (e *rmaEp) Exchange(epoch int, sends []Msg, recvs []Expect) [][]byte {
	t := e.t
	k, stride := t.spec.ExchangeSlots, t.spec.SlotBytes
	parity := epoch % 2
	for _, m := range sends {
		e.r.Put(t.exchWin, m.Peer, (parity*k+m.Slot)*stride, m.Data)
	}
	e.r.Fence(t.exchWin)
	e.t.sync()
	e.out = e.out[:0]
	for _, x := range recvs {
		e.out = append(e.out, t.exchWin.View(e.r.Rank(), (parity*k+x.Slot)*stride, x.Bytes))
	}
	return e.out
}

// Deliver streams one payload into (peer, slot) with the paper's 4-op
// protocol: Put data, Win_flush, Put signal, Win_flush.
func (e *rmaEp) Deliver(peer, slot int, data []byte) {
	t := e.t
	e.r.Put(t.dataWin, peer, slot*t.spec.SlotBytes, data)
	e.r.Flush(t.dataWin, peer)
	e.r.Put(t.sigWin, peer, slot*8, oneWord)
	e.r.Flush(t.sigWin, peer)
}

// WaitAnySlot blocks for the next unconsumed delivery with the paper's
// Listing-1 acknowledgment loop: scan the signal words masking out
// arrivals, charging PollCheck per remaining slot per wakeup.
func (e *rmaEp) WaitAnySlot() (int, []byte) {
	t := e.t
	stride := t.spec.SlotBytes
	me := e.r.Rank()
	found := -1
	t.sigWin.TargetSignal(me).WaitFor(e.r.Proc(), func() bool {
		for i := 0; i < e.expected; i++ {
			if e.mask[i] {
				continue
			}
			if t.sigWin.Uint64At(me, 8*i) == 1 {
				found = i
				return true
			}
		}
		return false
	})
	// Charge the scan over the remaining (unmasked) slots.
	if t.spec.PollCheck > 0 {
		e.r.Compute(t.spec.PollCheck * sim.Time(e.expected-e.got))
	}
	e.mask[found] = true
	e.got++
	t.sync()
	return found, t.dataWin.View(me, found*stride, stride)
}

func (e *rmaEp) CAS(peer, off int, compare, swap uint64) uint64 {
	return e.r.CompareAndSwap(e.t.heapWin, peer, off, compare, swap)
}

func (e *rmaEp) FetchAdd(peer, off int, delta uint64) uint64 {
	return e.r.FetchAndAdd(e.t.heapWin, peer, off, delta)
}

// FlushLocal completes outstanding RMA toward peer locally, a charged
// MPI op.
func (e *rmaEp) FlushLocal(peer int) { e.r.FlushLocal(e.t.heapWin, peer) }

func (e *rmaEp) Lanes(int) int { return 1 }

func (e *rmaEp) ForkJoin(lanes int, body func(Endpoint, int)) {
	for i := 0; i < lanes; i++ {
		body(e, i)
	}
}

func (e *rmaEp) BcastPut([]byte) {
	panic("comm: RMA transports update remotely with atomics (gate on Caps().Atomics)")
}

func (e *rmaEp) CollectPuts() [][]byte {
	panic("comm: RMA transports update remotely with atomics (gate on Caps().Atomics)")
}
