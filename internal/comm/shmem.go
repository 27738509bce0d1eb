package comm

import (
	"slices"

	"msgroofline/internal/gpu"
	"msgroofline/internal/machine"
	"msgroofline/internal/runtime"
	"msgroofline/internal/shmem"
	"msgroofline/internal/sim"
)

// shmemT serves every transport but two-sided from the internal/shmem
// core: put-with-signal delivery (the signal word rides the payload
// flight), wait_until_* receivers, blocking remote atomics, the
// dissemination barrier, and fork/join thread-block contexts on Shmem.
// The Job's machine.Transport decides how a put leaves the host:
// device-initiated on Shmem (k=2 per fused put), a stream-triggered
// descriptor on StreamTriggered, a channel write on MemChannel, a
// fused CPU notified-access op on Notified (k=2, nothing to quiet), an
// MPI_Put on OneSided, which has no put-with-signal and runs the
// paper's strict discipline instead (see the package doc).
type shmemT struct {
	base
	j *shmem.Job
	// sigBase is the heap offset of the signal area (exchange and
	// stream modes; see heapLayout).
	sigBase int
}

// pgasTransports maps each Kind served by shmemT to the machine
// transport its puts leave the host on.
var pgasTransports = map[Kind]machine.Transport{
	OneSided:        machine.OneSided,
	Notified:        machine.NotifiedAccess,
	Shmem:           machine.GPUShmem,
	StreamTriggered: machine.StreamTriggered,
	MemChannel:      machine.MemChannel,
}

// heapLayout sizes one rank's symmetric heap for the spec's mode and
// places its signal words at [sigBase, size): parity-double-buffered
// exchange slots followed by 2 parities x K signals (none on
// OneSided, whose epochs end in a fence), streamed-delivery slots
// followed by one signal per slot and 64 spare bytes, or a flat shared
// heap with no signal words.
func heapLayout(spec Spec) (size, sigBase int) {
	switch {
	case spec.ExchangeSlots > 0 && spec.Kind == OneSided:
		return 2 * spec.ExchangeSlots * spec.SlotBytes, 2 * spec.ExchangeSlots * spec.SlotBytes
	case spec.ExchangeSlots > 0:
		sigBase = 2 * spec.ExchangeSlots * spec.SlotBytes
		return sigBase + 2*spec.ExchangeSlots*8, sigBase
	case spec.StreamSlots != nil:
		maxSlots := slices.Max(spec.StreamSlots)
		sigBase = spec.SlotBytes * maxSlots
		return sigBase + 8*maxSlots + 64, sigBase
	}
	return spec.SharedBytes, spec.SharedBytes
}

func newShmem(spec Spec) (*shmemT, error) {
	heap, sigBase := heapLayout(spec)
	j, err := shmem.NewJobSharded(spec.Machine, pgasTransports[spec.Kind], spec.Ranks, heap, sigBase, spec.Shards)
	if err != nil {
		return nil, err
	}
	j.World().SetChaos(spec.Chaos)
	t := &shmemT{base: base{spec: spec}, j: j, sigBase: sigBase}
	if rec := t.attachTrace(); rec != nil {
		j.SetHook(rec.Record)
	}
	return t, nil
}

func (t *shmemT) Kind() Kind        { return t.spec.Kind }
func (t *shmemT) Caps() Caps        { return Caps{Atomics: true} }
func (t *shmemT) Digest() uint64    { return t.j.Digest() }
func (t *shmemT) Elapsed() sim.Time { return t.j.Elapsed() }

func (t *shmemT) SharedBytes(pe int) []byte { return t.j.PE(pe).Heap() }

// Stream exposes a rank's device stream (nil unless StreamTriggered)
// for the conformance stream-ordering oracle (StreamInspector).
func (t *shmemT) Stream(rank int) *gpu.Stream { return t.j.PE(rank).Stream() }

// Channels exposes the channels a rank has written to, in destination
// order, for the conformance channel-FIFO oracle (ChannelInspector).
func (t *shmemT) Channels(rank int) []*runtime.Channel { return t.j.PE(rank).Channels() }

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
	t     *shmemT
	c     *shmem.Ctx
	waits []int    // Exchange's signal offsets, reused
	out   [][]byte // Exchange's result, reused

	// Streamed-delivery receive state (shared with fork/join lanes);
	// got counts the slots consumed, for OneSided's poll charge.
	mask []bool
	sigs []int
	got  int
}

// oneWord is the signal word OneSided's second put writes.
var oneWord = []byte{1, 0, 0, 0, 0, 0, 0, 0}

func (e *shEp) oneSided() bool { return e.t.spec.Kind == OneSided }

func (e *shEp) Rank() int          { return e.c.MyPE() }
func (e *shEp) Size() int          { return e.t.spec.Ranks }
func (e *shEp) Caps() Caps         { return e.t.Caps() }
func (e *shEp) Now() sim.Time      { return e.c.Now() }
func (e *shEp) Compute(d sim.Time) { e.c.Compute(d) }
func (e *shEp) Barrier()           { e.c.Barrier() }

// Quiet is free on OneSided, whose protocol flushes as it goes.
func (e *shEp) Quiet() {
	if !e.oneSided() {
		e.c.Quiet()
	}
}

// Exchange runs one epoch of put-with-signal toward each peer slot
// and wait_until_all on this rank's expected signals — no barrier,
// parity double-buffering keeps epochs from colliding. OneSided puts
// and closes the epoch with a fence instead (§III-A). Either reads the
// slots through View, so blank halos leave the heap unmade.
func (e *shEp) Exchange(epoch int, sends []Msg, recvs []Expect) [][]byte {
	t := e.t
	k, stride, sigBase := t.spec.ExchangeSlots, t.spec.SlotBytes, t.sigBase
	parity := epoch % 2
	if e.oneSided() {
		for _, m := range sends {
			e.c.PutNBI(m.Peer, (parity*k+m.Slot)*stride, m.Data)
		}
		e.c.Fence()
	} else {
		for _, m := range sends {
			e.c.PutSignalNBI(m.Peer, (parity*k+m.Slot)*stride, m.Data,
				sigBase+(parity*k+m.Slot)*8, uint64(epoch+1))
		}
		e.waits = e.waits[:0]
		for _, x := range recvs {
			e.waits = append(e.waits, sigBase+(parity*k+x.Slot)*8)
		}
		e.c.WaitUntilAll(e.waits, uint64(epoch+1))
	}
	t.sync()
	e.out = e.out[:0]
	for _, x := range recvs {
		e.out = append(e.out, e.c.PE().View((parity*k+x.Slot)*stride, x.Bytes))
	}
	return e.out
}

// Deliver is one fused put-with-signal (k=2 on Shmem and Notified),
// or on OneSided the paper's 4-op protocol: put data, flush, put the
// signal word, flush.
func (e *shEp) Deliver(peer, slot int, data []byte) {
	stride, sigOff := e.t.spec.SlotBytes, e.t.sigBase+8*slot
	if !e.oneSided() {
		e.c.PutSignalNBI(peer, slot*stride, data, sigOff, 1)
		return
	}
	e.c.PutNBI(peer, slot*stride, data)
	e.c.Flush(peer, slot*stride)
	e.c.PutNBI(peer, sigOff, oneWord)
	e.c.Flush(peer, sigOff)
}

// WaitAnySlot is nvshmem_wait_until_any over the unmasked signals. On
// OneSided it is the paper's Listing-1 acknowledgment loop, which also
// charges PollCheck per remaining slot per wakeup.
func (e *shEp) WaitAnySlot() (int, []byte) {
	i := e.c.WaitUntilAny(e.sigs, e.mask, 1)
	if e.oneSided() && e.t.spec.PollCheck > 0 {
		e.c.Compute(e.t.spec.PollCheck * sim.Time(len(e.mask)-e.got))
	}
	e.mask[i] = true
	e.got++
	e.t.sync()
	stride := e.t.spec.SlotBytes
	return i, e.c.PE().View(i*stride, stride)
}

func (e *shEp) CAS(peer, off int, compare, swap uint64) uint64 {
	return e.c.AtomicCompareSwap(peer, off, compare, swap)
}

func (e *shEp) FetchAdd(peer, off int, delta uint64) uint64 {
	return e.c.AtomicFetchAdd(peer, off, delta)
}

// FlushLocal is OneSided's charged MPI_Win_flush_local, and free
// elsewhere: puts complete fused or by quiet, stream or channel order
// without a local-completion op, and atomics block.
func (e *shEp) FlushLocal(int) { e.c.FlushLocal() }

// Lanes is want on Shmem (GPU thread-block contexts) and 1 elsewhere:
// a Notified rank is one CPU process, and the two offload paths
// serialize their puts through the rank's single device stream or
// per-destination byte streams.
func (e *shEp) Lanes(want int) int {
	if e.t.spec.Kind == Shmem {
		return want
	}
	return 1
}

// ForkJoin spreads body over lanes concurrent thread-block contexts on
// Shmem and runs it inline elsewhere.
func (e *shEp) ForkJoin(lanes int, body func(Endpoint, int)) {
	if e.t.spec.Kind != Shmem {
		for i := 0; i < lanes; i++ {
			body(e, i)
		}
		return
	}
	e.c.ForkJoin(lanes, func(blk *shmem.Ctx, bi int) {
		body(&shEp{t: e.t, c: blk, mask: e.mask, sigs: e.sigs}, bi)
	})
}

func (e *shEp) BcastPut([]byte) {
	panic("comm: " + e.t.spec.Kind.String() + " updates remotely with atomics (gate on Caps().Atomics)")
}

func (e *shEp) CollectPuts() [][]byte {
	panic("comm: " + e.t.spec.Kind.String() + " updates remotely with atomics (gate on Caps().Atomics)")
}
