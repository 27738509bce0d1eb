package comm

import (
	"cmp"
	"fmt"
	"slices"

	"msgroofline/internal/gpu"
	"msgroofline/internal/machine"
	"msgroofline/internal/runtime"
	"msgroofline/internal/sim"
)

// offloadT serves the two transports whose puts leave the host
// through an offload path rather than a library stack. Both keep a
// slotHeap per rank, deliver fused put-with-signal (the signal word
// rides the payload flight), run the same dissemination barrier on raw
// injections, and execute remote atomics on the target's heap. They
// differ only in how a put leaves the host, and each rank branches on
// whether it owns a device stream:
//
//   - StreamTriggered (Bridges et al.): every put is a descriptor the
//     host enqueues onto the rank's gpu.Stream for OpsPerMsg tiny
//     enqueue ops, and the trigger engine fires it once its stream
//     predecessor has completed. The o/L split inverts relative to
//     host-driven stacks: tiny o at enqueue, TriggerLatency added to
//     every message's latency. Quiet charges one op and waits for
//     every descriptor to fire and deliver; the stream's
//     enqueue/ready/fire log feeds the conformance stream-ordering
//     oracle.
//   - MemChannel (RAMC, Schonbein et al.): every put is a write into
//     the ordered runtime.Channel toward its destination — a FIFO byte
//     stream with a one-time open handshake and sender-side credits,
//     opened on the first write. Ordering replaces per-op completion
//     (k=1, no flush ops) and Quiet is channel drainage. The receive
//     resequencer restores FIFO under fault-induced wire reordering;
//     the per-channel arrival logs feed the conformance channel-FIFO
//     oracle.
type offloadT struct {
	base
	world *runtime.World
	tp    machine.TransportParams
	pes   []*offPE
	hook  func(src, dst int, bytes int64, issue, deliver sim.Time)
}

type offPE struct {
	id   int
	ep   *runtime.Endpoint
	heap *slotHeap
	// stream is the rank's device stream on StreamTriggered, nil on
	// MemChannel.
	stream *gpu.Stream
	// chans holds the MemChannel channels this rank has written to,
	// sorted by Dst().
	chans []*runtime.Channel

	// outstanding counts injections not yet remotely complete: barrier
	// signals, plus every put on StreamTriggered (channel writes are
	// tracked by their channels).
	outstanding int
	landed      *sim.Cond
	quiesced    *sim.Cond

	barSig  []uint64
	barCond *sim.Cond
	barSeq  int

	atomics int64
}

func newOffload(spec Spec) (*offloadT, error) {
	mt, name := machine.StreamTriggered, "stream-triggered"
	if spec.Kind == MemChannel {
		mt, name = machine.MemChannel, "memory-channel"
	}
	tp, ok := spec.Machine.Params(mt)
	if !ok {
		return nil, fmt.Errorf("comm: machine %s has no %s transport", spec.Machine.Name, name)
	}
	w, err := runtime.NewWorldSharded(spec.Machine, spec.Ranks, spec.Shards)
	if err != nil {
		return nil, err
	}
	spec.applyChaos(w, w.Inst.Net)
	t := &offloadT{base: base{spec: spec}, world: w, tp: tp}
	for r := 0; r < spec.Ranks; r++ {
		eng := w.EngineOf(r)
		pe := &offPE{
			id:       r,
			ep:       w.Endpoint(r),
			heap:     newSlotHeap(spec),
			landed:   sim.NewCond(eng),
			quiesced: sim.NewCond(eng),
			barSig:   make([]uint64, 64),
			barCond:  sim.NewCond(eng),
		}
		if spec.Kind == StreamTriggered {
			pe.stream = gpu.NewStream(tp.TriggerLatency)
			pe.stream.SetUnordered(spec.DebugUnordered)
		}
		t.pes = append(t.pes, pe)
	}
	t.hook = t.attachTrace()
	return t, nil
}

func (t *offloadT) Kind() Kind        { return t.spec.Kind }
func (t *offloadT) Caps() Caps        { return Caps{Atomics: true, Fused: true} }
func (t *offloadT) Digest() uint64    { return t.world.Digest() }
func (t *offloadT) Elapsed() sim.Time { return t.world.Elapsed() }

func (t *offloadT) SharedBytes(rank int) []byte { return t.pes[rank].heap.bytes() }

// Stream exposes a rank's device stream (nil on MemChannel) for the
// conformance stream-ordering oracle (StreamInspector).
func (t *offloadT) Stream(rank int) *gpu.Stream { return t.pes[rank].stream }

// Channels exposes the channels a rank has written to, in destination
// order, for the conformance channel-FIFO oracle (ChannelInspector).
func (t *offloadT) Channels(rank int) []*runtime.Channel { return t.pes[rank].chans }

func (t *offloadT) AtomicCount() int64 {
	var total int64
	for _, pe := range t.pes {
		total += pe.atomics
	}
	return total
}

func (t *offloadT) Launch(body func(Endpoint)) error {
	for _, pe := range t.pes {
		pe := pe
		t.world.Spawn(pe.id, fmt.Sprintf("rank%d", pe.id), func(proc *sim.Proc) {
			ep := &offEp{t: t, pe: pe, proc: proc}
			if t.spec.StreamSlots != nil {
				expected := t.spec.StreamSlots[pe.id]
				ep.mask = make([]bool, expected)
				ep.sigs = make([]int, expected)
				for i := range ep.sigs {
					ep.sigs[i] = pe.heap.sigBase + 8*i
				}
			}
			body(ep)
		})
	}
	return t.world.Run()
}

type offEp struct {
	t    *offloadT
	pe   *offPE
	proc *sim.Proc

	// Streamed-delivery receive state.
	mask []bool
	sigs []int
}

func (e *offEp) Rank() int          { return e.pe.id }
func (e *offEp) Size() int          { return e.t.spec.Ranks }
func (e *offEp) Caps() Caps         { return e.t.Caps() }
func (e *offEp) Now() sim.Time      { return e.proc.Now() }
func (e *offEp) Compute(d sim.Time) { e.proc.Sleep(d) }

// put issues one fused put-with-signal toward dst; the signal word
// rides the payload flight (+8 bytes). On StreamTriggered the host
// pays OpsPerMsg enqueue ops, the stream computes the fire time, and
// the injection runs at the fire, which the trace records as the
// issue time. On MemChannel the write enters dst's channel, which
// charges its own op, and the resequencer applies it on dst only after
// every earlier write on that channel: that ordering is the signal's
// correctness.
func (e *offEp) put(dst, dstOff int, data []byte, sigOff int, sigVal uint64) {
	t, pe := e.t, e.pe
	if dst < 0 || dst >= t.spec.Ranks {
		panic(fmt.Sprintf("comm: %s put to invalid rank %d", t.spec.Kind, dst))
	}
	target := t.pes[dst]
	if dstOff < 0 || dstOff+len(data) > target.heap.size {
		panic(fmt.Sprintf("comm: %s put [%d,%d) outside rank %d heap (%d bytes)",
			t.spec.Kind, dstOff, dstOff+len(data), dst, target.heap.size))
	}
	issue := e.proc.Now()
	if pe.stream != nil {
		for i := 0; i < t.tp.OpsPerMsg; i++ {
			pe.ep.ChargeOp(e.proc, t.tp)
		}
		issue = pe.stream.Enqueue(e.proc.Now())
	}
	buf := runtime.Stage(data)
	bytes := int64(len(data))
	if sigOff >= 0 {
		bytes += 8
	}
	deliver := func(at sim.Time) {
		target.heap.land(dstOff, buf)
		if sigOff >= 0 {
			target.heap.store(sigOff, sigVal)
		}
		if t.hook != nil {
			t.hook(pe.id, dst, bytes, issue, at)
		}
		target.landed.Broadcast()
	}
	if pe.stream == nil {
		e.channel(dst).Send(e.proc, bytes, pe.ep.AutoChannel(), deliver)
		return
	}
	pe.outstanding++
	ch := pe.ep.AutoChannel()
	e.proc.Engine().At(issue, func() {
		pe.ep.Inject(t.tp, dst, bytes, ch, deliver, e.completed)
	})
}

// channel returns this rank's channel toward dst, opening it on the
// first write.
func (e *offEp) channel(dst int) *runtime.Channel {
	pe := e.pe
	i, found := slices.BinarySearchFunc(pe.chans, dst, func(c *runtime.Channel, dst int) int {
		return cmp.Compare(c.Dst(), dst)
	})
	if !found {
		c := runtime.NewChannel(pe.ep, dst, e.t.tp)
		c.SetUnordered(e.t.spec.DebugUnordered)
		pe.chans = slices.Insert(pe.chans, i, c)
	}
	return pe.chans[i]
}

// completed retires one outstanding injection at its remote completion.
func (e *offEp) completed(sim.Time) {
	e.pe.outstanding--
	e.pe.quiesced.Broadcast()
}

func (e *offEp) Barrier() {
	e.Quiet()
	t := e.t
	pe := e.pe
	n := t.spec.Ranks
	if n == 1 {
		return
	}
	seq := pe.barSeq
	pe.barSeq++
	round := 0
	for k := 1; k < n; k <<= 1 {
		dst := t.pes[(pe.id+k)%n]
		slot := (seq*8 + round) % len(dst.barSig)
		gen := uint64(seq + 1)
		// Internal round signal: a raw host injection outside the
		// stream and the channels, not traced.
		pe.ep.ChargeOp(e.proc, t.tp)
		pe.outstanding++
		pe.ep.Inject(t.tp, dst.id, 8, pe.ep.AutoChannel(), func(at sim.Time) {
			dst.barSig[slot] = gen
			dst.barCond.Broadcast()
		}, e.completed)
		mySlot := (seq*8 + round) % len(pe.barSig)
		pe.barCond.WaitFor(e.proc, func() bool { return pe.barSig[mySlot] >= gen })
		round++
	}
}

// Quiet completes every put this rank issued, then waits out the
// outstanding injections. StreamTriggered charges one op and waits for
// every enqueued descriptor to fire and deliver; MemChannel drains its
// channels in destination order, the transport's native fence.
func (e *offEp) Quiet() {
	pe := e.pe
	if pe.stream != nil {
		pe.ep.ChargeOp(e.proc, e.t.tp)
	}
	for _, ch := range pe.chans {
		ch.Drain(e.proc)
	}
	pe.quiesced.WaitFor(e.proc, func() bool { return pe.outstanding == 0 })
}

// Exchange is the parity-double-buffered put-with-signal epoch of the
// fused transports.
func (e *offEp) Exchange(epoch int, sends []Msg, recvs []Expect) [][]byte {
	t := e.t
	k, stride, sigBase := t.spec.ExchangeSlots, t.spec.SlotBytes, e.pe.heap.sigBase
	parity := epoch % 2
	for _, m := range sends {
		e.put(m.Peer, (parity*k+m.Slot)*stride, m.Data,
			sigBase+(parity*k+m.Slot)*8, uint64(epoch+1))
	}
	pe := e.pe
	pe.landed.WaitFor(e.proc, func() bool {
		for _, x := range recvs {
			if pe.heap.load(sigBase+(parity*k+x.Slot)*8) != uint64(epoch+1) {
				return false
			}
		}
		return true
	})
	t.sync()
	out := make([][]byte, len(recvs))
	for i, x := range recvs {
		off := (parity*k + x.Slot) * stride
		out[i] = pe.heap.bytes()[off : off+x.Bytes]
	}
	return out
}

// Deliver is one fused put-with-signal.
func (e *offEp) Deliver(peer, slot int, data []byte) {
	stride := e.t.spec.SlotBytes
	e.put(peer, slot*stride, data, e.pe.heap.sigBase+8*slot, 1)
}

// WaitAnySlot waits for the next unconsumed stream slot signal.
func (e *offEp) WaitAnySlot() (int, []byte) {
	pe := e.pe
	found := -1
	pe.landed.WaitFor(e.proc, func() bool {
		for i, off := range e.sigs {
			if e.mask[i] {
				continue
			}
			if pe.heap.load(off) == 1 {
				found = i
				return true
			}
		}
		return false
	})
	e.mask[found] = true
	e.t.sync()
	stride := e.t.spec.SlotBytes
	return found, pe.heap.view(found*stride, stride)
}

func (e *offEp) CAS(peer, off int, compare, swap uint64) uint64 {
	target := e.t.pes[peer]
	e.pe.atomics++
	return e.pe.ep.RemoteAtomic(e.proc, e.t.tp, peer, func() uint64 {
		old := target.heap.load(off)
		if old == compare {
			target.heap.store(off, swap)
		}
		return old
	})
}

func (e *offEp) FetchAdd(peer, off int, delta uint64) uint64 {
	target := e.t.pes[peer]
	e.pe.atomics++
	return e.pe.ep.RemoteAtomic(e.proc, e.t.tp, peer, func() uint64 {
		old := target.heap.load(off)
		target.heap.store(off, old+delta)
		return old
	})
}

// FlushLocal is a no-op: puts complete in stream or channel order
// without a local-completion op, and atomics block.
func (e *offEp) FlushLocal(int) {}

// Lanes is 1: puts serialize through the rank's single device stream
// or per-destination byte streams, so block-level lanes would not add
// concurrency.
func (e *offEp) Lanes(int) int { return 1 }

func (e *offEp) ForkJoin(lanes int, body func(Endpoint, int)) {
	for i := 0; i < lanes; i++ {
		body(e, i)
	}
}

func (e *offEp) BcastPut([]byte) {
	panic(fmt.Sprintf("comm: %s updates remotely with atomics (gate on Caps().Atomics)", e.t.spec.Kind))
}

func (e *offEp) CollectPuts() [][]byte {
	panic(fmt.Sprintf("comm: %s updates remotely with atomics (gate on Caps().Atomics)", e.t.spec.Kind))
}
