package comm

import (
	"msgroofline/internal/shmem"
	"msgroofline/internal/sim"
)

// shmemT delegates to the internal/shmem NVSHMEM-style PGAS stack:
// put_signal_nbi delivery (k=2: payload and signal charged as one
// fused 2-op flight), wait_until_* receivers, blocking device
// atomics, and fork/join thread-block contexts.
type shmemT struct {
	base
	j *shmem.Job
	// sigBase is the heap offset of the signal area (exchange and
	// stream modes; see heapLayout).
	sigBase int
}

func newShmem(spec Spec) (*shmemT, error) {
	heap, sigBase := heapLayout(spec)
	j, err := shmem.NewJobSharded(spec.Machine, spec.Ranks, heap, spec.Shards)
	if err != nil {
		return nil, err
	}
	spec.applyChaos(j.World(), j.World().Inst.Net)
	t := &shmemT{base: base{spec: spec}, j: j, sigBase: sigBase}
	if hook := t.attachTrace(); hook != nil {
		j.SetPutHook(hook)
	}
	return t, nil
}

func (t *shmemT) Kind() Kind        { return Shmem }
func (t *shmemT) Caps() Caps        { return Caps{Atomics: true, Fused: true} }
func (t *shmemT) Digest() uint64    { return t.j.Digest() }
func (t *shmemT) Elapsed() sim.Time { return t.j.Elapsed() }

func (t *shmemT) SharedBytes(pe int) []byte { return t.j.PE(pe).Heap() }

func (t *shmemT) AtomicCount() int64 {
	var total int64
	for pe := 0; pe < t.spec.Ranks; pe++ {
		_, atomics := t.j.PE(pe).OpStats()
		total += atomics
	}
	return total
}

func (t *shmemT) Launch(body func(Endpoint)) error {
	return t.j.Launch(func(c *shmem.Ctx) { body(t.newEp(c)) })
}

func (t *shmemT) newEp(c *shmem.Ctx) *shEp {
	ep := &shEp{t: t, c: c}
	if t.spec.StreamSlots != nil {
		expected := t.spec.StreamSlots[c.MyPE()]
		ep.mask = make([]bool, expected)
		ep.sigs = make([]int, expected)
		for i := range ep.sigs {
			ep.sigs[i] = t.sigBase + 8*i
		}
	}
	return ep
}

type shEp struct {
	t *shmemT
	c *shmem.Ctx

	// Streamed-delivery receive state (shared with fork/join lanes).
	mask []bool
	sigs []int
}

func (e *shEp) Rank() int          { return e.c.MyPE() }
func (e *shEp) Size() int          { return e.t.spec.Ranks }
func (e *shEp) Caps() Caps         { return e.t.Caps() }
func (e *shEp) Now() sim.Time      { return e.c.Now() }
func (e *shEp) Compute(d sim.Time) { e.c.Compute(d) }
func (e *shEp) Barrier()           { e.c.Barrier() }
func (e *shEp) Quiet()             { e.c.Quiet() }

// Exchange runs one epoch of put-with-signal toward each peer slot
// and wait_until_all on this rank's expected signals — no barrier,
// parity double-buffering keeps epochs from colliding.
func (e *shEp) Exchange(epoch int, sends []Msg, recvs []Expect) [][]byte {
	t := e.t
	k, stride, sigBase := t.spec.ExchangeSlots, t.spec.SlotBytes, t.sigBase
	parity := epoch % 2
	for _, m := range sends {
		e.c.PutSignalNBI(m.Peer, (parity*k+m.Slot)*stride, m.Data,
			sigBase+(parity*k+m.Slot)*8, uint64(epoch+1))
	}
	sigs := make([]int, 0, len(recvs))
	for _, x := range recvs {
		sigs = append(sigs, sigBase+(parity*k+x.Slot)*8)
	}
	e.c.WaitUntilAll(sigs, uint64(epoch+1))
	t.sync()
	heap := e.c.PE().Heap()
	out := make([][]byte, len(recvs))
	for i, x := range recvs {
		off := (parity*k + x.Slot) * stride
		out[i] = heap[off : off+x.Bytes]
	}
	return out
}

// Deliver is one nvshmem put-with-signal: payload and signal in one
// fused nonblocking operation (k=2).
func (e *shEp) Deliver(peer, slot int, data []byte) {
	stride := e.t.spec.SlotBytes
	e.c.PutSignalNBI(peer, slot*stride, data, e.t.sigBase+8*slot, 1)
}

// WaitAnySlot is nvshmem_wait_until_any over the unmasked signals.
func (e *shEp) WaitAnySlot() (int, []byte) {
	i := e.c.WaitUntilAny(e.sigs, e.mask, 1)
	e.mask[i] = true
	e.t.sync()
	stride := e.t.spec.SlotBytes
	return i, e.c.PE().Heap()[i*stride : (i+1)*stride]
}

func (e *shEp) CAS(peer, off int, compare, swap uint64) uint64 {
	return e.c.AtomicCompareSwap(peer, off, compare, swap)
}

func (e *shEp) FetchAdd(peer, off int, delta uint64) uint64 {
	return e.c.AtomicFetchAdd(peer, off, delta)
}

// FlushLocal is a no-op: blocking device atomics are complete when
// they return, with no separate local-completion op to charge.
func (e *shEp) FlushLocal(int) {}

func (e *shEp) Lanes(want int) int { return want }

// ForkJoin spreads body over lanes concurrent thread-block contexts.
func (e *shEp) ForkJoin(lanes int, body func(Endpoint, int)) {
	e.c.ForkJoin(lanes, func(blk *shmem.Ctx, bi int) {
		body(&shEp{t: e.t, c: blk, mask: e.mask, sigs: e.sigs}, bi)
	})
}

func (e *shEp) BcastPut([]byte) {
	panic("comm: shmem updates remotely with atomics (gate on Caps().Atomics)")
}

func (e *shEp) CollectPuts() [][]byte {
	panic("comm: shmem updates remotely with atomics (gate on Caps().Atomics)")
}
