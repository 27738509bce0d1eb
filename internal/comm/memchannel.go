package comm

import (
	"fmt"

	"msgroofline/internal/machine"
	"msgroofline/internal/runtime"
	"msgroofline/internal/sim"
)

// memChanT is the RAMC-style ordered-channel transport (Schonbein et
// al.): every (src,dst) pair communicates over a runtime.Channel — a
// FIFO byte stream with a one-time open handshake and sender-side
// credits. Ordering replaces per-op completion: one op per message
// (k=1, no flush ops), the signal word rides the payload flight, and
// Quiet/fence are channel drainage. The receive resequencer restores
// FIFO under fault-induced wire reordering; the per-channel arrival
// logs feed the conformance channel-FIFO oracle.
type memChanT struct {
	base
	world *runtime.World
	tp    machine.TransportParams
	pes   []*mcPE
	hook  func(src, dst int, bytes int64, issue, deliver sim.Time)
}

type mcPE struct {
	id    int
	ep    *runtime.Endpoint
	heap  *slotHeap
	chans []*runtime.Channel // per destination rank

	// outstanding counts internal (barrier) messages, which ride raw
	// injections outside the channels.
	outstanding int
	landed      *sim.Cond
	quiesced    *sim.Cond

	barSig  []uint64
	barCond *sim.Cond
	barSeq  int

	atomics int64
}

func newMemChannel(spec Spec) (*memChanT, error) {
	tp, ok := spec.Machine.Params(machine.MemChannel)
	if !ok {
		return nil, fmt.Errorf("comm: machine %s has no memory-channel transport", spec.Machine.Name)
	}
	w, err := runtime.NewWorldSharded(spec.Machine, spec.Ranks, spec.Shards)
	if err != nil {
		return nil, err
	}
	spec.applyChaos(w, w.Inst.Net)
	t := &memChanT{base: base{spec: spec}, world: w, tp: tp}
	for r := 0; r < spec.Ranks; r++ {
		eng := w.EngineOf(r)
		t.pes = append(t.pes, &mcPE{
			id:       r,
			ep:       w.Endpoint(r),
			heap:     newSlotHeap(spec),
			chans:    make([]*runtime.Channel, spec.Ranks),
			landed:   sim.NewCond(eng),
			quiesced: sim.NewCond(eng),
			barSig:   make([]uint64, 64),
			barCond:  sim.NewCond(eng),
		})
	}
	for _, pe := range t.pes {
		for dst := 0; dst < spec.Ranks; dst++ {
			c := runtime.NewChannel(pe.ep, dst, tp)
			c.SetUnordered(spec.DebugUnordered)
			pe.chans[dst] = c
		}
	}
	t.hook = t.attachTrace()
	return t, nil
}

func (t *memChanT) Kind() Kind        { return MemChannel }
func (t *memChanT) Caps() Caps        { return Caps{Atomics: true, Fused: true} }
func (t *memChanT) Digest() uint64    { return t.world.Digest() }
func (t *memChanT) Elapsed() sim.Time { return t.world.Elapsed() }

func (t *memChanT) SharedBytes(rank int) []byte { return t.pes[rank].heap.bytes() }

// Channels exposes a rank's outgoing channels for the conformance
// channel-FIFO oracle (ChannelInspector).
func (t *memChanT) Channels(rank int) []*runtime.Channel { return t.pes[rank].chans }

func (t *memChanT) AtomicCount() int64 {
	var total int64
	for _, pe := range t.pes {
		total += pe.atomics
	}
	return total
}

func (t *memChanT) Launch(body func(Endpoint)) error {
	for _, pe := range t.pes {
		pe := pe
		t.world.Spawn(pe.id, fmt.Sprintf("rank%d", pe.id), func(proc *sim.Proc) {
			ep := &mcEp{t: t, pe: pe, proc: proc}
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

type mcEp struct {
	t    *memChanT
	pe   *mcPE
	proc *sim.Proc

	// Streamed-delivery receive state.
	mask []bool
	sigs []int
}

func (e *mcEp) Rank() int          { return e.pe.id }
func (e *mcEp) Size() int          { return e.t.spec.Ranks }
func (e *mcEp) Caps() Caps         { return e.t.Caps() }
func (e *mcEp) Now() sim.Time      { return e.proc.Now() }
func (e *mcEp) Compute(d sim.Time) { e.proc.Sleep(d) }

// putChannel writes one message into the channel toward dst: payload
// plus ridden signal word, applied on the destination in channel
// order (the resequencer guarantees every earlier write on this
// channel landed first — that ordering IS the signal's correctness).
func (e *mcEp) putChannel(dst, dstOff int, data []byte, sigOff int, sigVal uint64) {
	t := e.t
	pe := e.pe
	if dst < 0 || dst >= t.spec.Ranks {
		panic(fmt.Sprintf("comm: channel put to invalid rank %d", dst))
	}
	target := t.pes[dst]
	if dstOff < 0 || dstOff+len(data) > target.heap.size {
		panic(fmt.Sprintf("comm: channel put [%d,%d) outside rank %d heap (%d bytes)",
			dstOff, dstOff+len(data), dst, target.heap.size))
	}
	buf := runtime.Stage(data)
	bytes := int64(len(data))
	if sigOff >= 0 {
		bytes += 8
	}
	issue := e.proc.Now()
	pe.chans[dst].Send(e.proc, bytes, pe.ep.AutoChannel(), func(at sim.Time) {
		target.heap.land(dstOff, buf)
		if sigOff >= 0 {
			target.heap.store(sigOff, sigVal)
		}
		if t.hook != nil {
			t.hook(pe.id, dst, bytes, issue, at)
		}
		target.landed.Broadcast()
	})
}

func (e *mcEp) Barrier() {
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
		// Internal round signal: raw injection outside the channels.
		pe.ep.ChargeOp(e.proc, t.tp)
		pe.outstanding++
		pe.ep.Inject(t.tp, dst.id, 8, pe.ep.AutoChannel(), func(at sim.Time) {
			dst.barSig[slot] = gen
			dst.barCond.Broadcast()
		}, func(at sim.Time) {
			pe.outstanding--
			pe.quiesced.Broadcast()
		})
		mySlot := (seq*8 + round) % len(pe.barSig)
		pe.barCond.WaitFor(e.proc, func() bool { return pe.barSig[mySlot] >= gen })
		round++
	}
}

// Quiet drains every used channel — the transport's native fence is
// channel drainage — then waits out internal barrier traffic.
func (e *mcEp) Quiet() {
	for _, ch := range e.pe.chans {
		if ch.Sent() > 0 {
			ch.Drain(e.proc)
		}
	}
	e.pe.quiesced.WaitFor(e.proc, func() bool { return e.pe.outstanding == 0 })
}

// Exchange is the parity-double-buffered put-with-signal epoch with
// every put riding its destination's ordered channel.
func (e *mcEp) Exchange(epoch int, sends []Msg, recvs []Expect) [][]byte {
	t := e.t
	k, stride, sigBase := t.spec.ExchangeSlots, t.spec.SlotBytes, e.pe.heap.sigBase
	parity := epoch % 2
	for _, m := range sends {
		e.putChannel(m.Peer, (parity*k+m.Slot)*stride, m.Data,
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

// Deliver is one channel write carrying payload and signal.
func (e *mcEp) Deliver(peer, slot int, data []byte) {
	stride := e.t.spec.SlotBytes
	e.putChannel(peer, slot*stride, data, e.pe.heap.sigBase+8*slot, 1)
}

// WaitAnySlot waits for the next unconsumed stream slot signal.
func (e *mcEp) WaitAnySlot() (int, []byte) {
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

func (e *mcEp) CAS(peer, off int, compare, swap uint64) uint64 {
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

func (e *mcEp) FetchAdd(peer, off int, delta uint64) uint64 {
	target := e.t.pes[peer]
	e.pe.atomics++
	return e.pe.ep.RemoteAtomic(e.proc, e.t.tp, peer, func() uint64 {
		old := target.heap.load(off)
		target.heap.store(off, old+delta)
		return old
	})
}

// FlushLocal is a no-op: channel writes complete in order without a
// local-completion op, and atomics block.
func (e *mcEp) FlushLocal(int) {}

// Lanes is 1: a channel is a serialized byte stream per destination,
// so block-level lanes would not add concurrency.
func (e *mcEp) Lanes(int) int { return 1 }

func (e *mcEp) ForkJoin(lanes int, body func(Endpoint, int)) {
	for i := 0; i < lanes; i++ {
		body(e, i)
	}
}

func (e *mcEp) BcastPut([]byte) {
	panic("comm: memchannel updates remotely with atomics (gate on Caps().Atomics)")
}

func (e *mcEp) CollectPuts() [][]byte {
	panic("comm: memchannel updates remotely with atomics (gate on Caps().Atomics)")
}
