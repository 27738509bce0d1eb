package comm

import (
	"fmt"

	"msgroofline/internal/gpu"
	"msgroofline/internal/machine"
	"msgroofline/internal/runtime"
	"msgroofline/internal/sim"
)

// streamT is stream-triggered MPI (Bridges et al.): every put is a
// descriptor the host enqueues onto the rank's device stream for a
// near-zero op overhead, and the GPU trigger engine fires it once its
// stream predecessor has completed — the o/L split inverts relative
// to host-driven stacks (tiny o at enqueue, TriggerLatency added to
// every message's latency). Delivery itself is a fused
// put-with-signal flight like shmem's, so k=2 and the signal word
// rides the payload. Quiet waits for every enqueued descriptor to
// both fire and deliver; the per-rank gpu.Stream keeps the full
// enqueue/ready/fire log for the conformance stream-ordering oracle.
type streamT struct {
	base
	world *runtime.World
	tp    machine.TransportParams
	pes   []*stPE
	hook  func(src, dst int, bytes int64, issue, deliver sim.Time)
}

type stPE struct {
	id     int
	ep     *runtime.Endpoint
	heap   *slotHeap
	stream *gpu.Stream

	outstanding int
	landed      *sim.Cond
	quiesced    *sim.Cond

	barSig  []uint64
	barCond *sim.Cond
	barSeq  int

	atomics int64
}

func newStreamTriggered(spec Spec) (*streamT, error) {
	tp, ok := spec.Machine.Params(machine.StreamTriggered)
	if !ok {
		return nil, fmt.Errorf("comm: machine %s has no stream-triggered transport", spec.Machine.Name)
	}
	w, err := runtime.NewWorldSharded(spec.Machine, spec.Ranks, spec.Shards)
	if err != nil {
		return nil, err
	}
	spec.applyChaos(w, w.Inst.Net)
	t := &streamT{base: base{spec: spec}, world: w, tp: tp}
	for r := 0; r < spec.Ranks; r++ {
		eng := w.EngineOf(r)
		s := gpu.NewStream(tp.TriggerLatency)
		s.SetUnordered(spec.DebugUnordered)
		t.pes = append(t.pes, &stPE{
			id:       r,
			ep:       w.Endpoint(r),
			heap:     newSlotHeap(spec),
			stream:   s,
			landed:   sim.NewCond(eng),
			quiesced: sim.NewCond(eng),
			barSig:   make([]uint64, 64),
			barCond:  sim.NewCond(eng),
		})
	}
	t.hook = t.attachTrace()
	return t, nil
}

func (t *streamT) Kind() Kind        { return StreamTriggered }
func (t *streamT) Caps() Caps        { return Caps{Atomics: true, Fused: true} }
func (t *streamT) Digest() uint64    { return t.world.Digest() }
func (t *streamT) Elapsed() sim.Time { return t.world.Elapsed() }

func (t *streamT) SharedBytes(rank int) []byte { return t.pes[rank].heap.bytes() }

// Stream exposes a rank's device stream for the conformance
// stream-ordering oracle (StreamInspector).
func (t *streamT) Stream(rank int) *gpu.Stream { return t.pes[rank].stream }

func (t *streamT) AtomicCount() int64 {
	var total int64
	for _, pe := range t.pes {
		total += pe.atomics
	}
	return total
}

func (t *streamT) Launch(body func(Endpoint)) error {
	for _, pe := range t.pes {
		pe := pe
		t.world.Spawn(pe.id, fmt.Sprintf("rank%d", pe.id), func(proc *sim.Proc) {
			ep := &stEp{t: t, pe: pe, proc: proc}
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

type stEp struct {
	t    *streamT
	pe   *stPE
	proc *sim.Proc

	// Streamed-delivery receive state.
	mask []bool
	sigs []int
}

func (e *stEp) Rank() int          { return e.pe.id }
func (e *stEp) Size() int          { return e.t.spec.Ranks }
func (e *stEp) Caps() Caps         { return e.t.Caps() }
func (e *stEp) Now() sim.Time      { return e.proc.Now() }
func (e *stEp) Compute(d sim.Time) { e.proc.Sleep(d) }

// putStream enqueues one fused put-with-signal descriptor: the host
// pays two tiny enqueue overheads (descriptor + doorbell, k=2), the
// stream computes the fire time, and the injection event runs at the
// fire — from then on the message takes the usual wire journey. The
// signal word rides the payload flight (+8 bytes).
func (e *stEp) putStream(dst, dstOff int, data []byte, sigOff int, sigVal uint64) {
	t := e.t
	pe := e.pe
	if dst < 0 || dst >= t.spec.Ranks {
		panic(fmt.Sprintf("comm: stream-triggered put to invalid rank %d", dst))
	}
	target := t.pes[dst]
	if dstOff < 0 || dstOff+len(data) > target.heap.size {
		panic(fmt.Sprintf("comm: stream-triggered put [%d,%d) outside rank %d heap (%d bytes)",
			dstOff, dstOff+len(data), dst, target.heap.size))
	}
	for i := 0; i < t.tp.OpsPerMsg; i++ {
		pe.ep.ChargeOp(e.proc, t.tp)
	}
	buf := runtime.Stage(data)
	bytes := int64(len(data))
	if sigOff >= 0 {
		bytes += 8
	}
	pe.outstanding++
	fire := pe.stream.Enqueue(e.proc.Now())
	ch := pe.ep.AutoChannel()
	eng := e.proc.Engine()
	eng.At(fire, func() {
		pe.ep.Inject(t.tp, dst, bytes, ch, func(at sim.Time) {
			target.heap.land(dstOff, buf)
			if sigOff >= 0 {
				target.heap.store(sigOff, sigVal)
			}
			if t.hook != nil {
				t.hook(pe.id, dst, bytes, fire, at)
			}
			target.landed.Broadcast()
		}, func(at sim.Time) {
			pe.outstanding--
			pe.quiesced.Broadcast()
		})
	})
}

func (e *stEp) Barrier() {
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
		// Internal round signal: host-posted, not streamed, not traced.
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

// Quiet waits until every enqueued descriptor has fired and its
// message delivered (stream drained + remote completion).
func (e *stEp) Quiet() {
	e.pe.ep.ChargeOp(e.proc, e.t.tp)
	e.pe.quiesced.WaitFor(e.proc, func() bool { return e.pe.outstanding == 0 })
}

// Exchange is the parity-double-buffered put-with-signal epoch of the
// fused transports, with every put riding the device stream.
func (e *stEp) Exchange(epoch int, sends []Msg, recvs []Expect) [][]byte {
	t := e.t
	k, stride, sigBase := t.spec.ExchangeSlots, t.spec.SlotBytes, e.pe.heap.sigBase
	parity := epoch % 2
	for _, m := range sends {
		e.putStream(m.Peer, (parity*k+m.Slot)*stride, m.Data,
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

// Deliver is one stream-triggered fused put-with-signal.
func (e *stEp) Deliver(peer, slot int, data []byte) {
	stride := e.t.spec.SlotBytes
	e.putStream(peer, slot*stride, data, e.pe.heap.sigBase+8*slot, 1)
}

// WaitAnySlot waits for the next unconsumed stream slot signal.
func (e *stEp) WaitAnySlot() (int, []byte) {
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

func (e *stEp) CAS(peer, off int, compare, swap uint64) uint64 {
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

func (e *stEp) FetchAdd(peer, off int, delta uint64) uint64 {
	target := e.t.pes[peer]
	e.pe.atomics++
	return e.pe.ep.RemoteAtomic(e.proc, e.t.tp, peer, func() uint64 {
		old := target.heap.load(off)
		target.heap.store(off, old+delta)
		return old
	})
}

// FlushLocal is a no-op: atomics block and puts complete via stream
// order, with no separate local-completion op to charge.
func (e *stEp) FlushLocal(int) {}

// Lanes is 1: communication is serialized through the rank's single
// device stream, so block-level lanes would not add concurrency.
func (e *stEp) Lanes(int) int { return 1 }

func (e *stEp) ForkJoin(lanes int, body func(Endpoint, int)) {
	for i := 0; i < lanes; i++ {
		body(e, i)
	}
}

func (e *stEp) BcastPut([]byte) {
	panic("comm: stream-triggered updates remotely with atomics (gate on Caps().Atomics)")
}

func (e *stEp) CollectPuts() [][]byte {
	panic("comm: stream-triggered updates remotely with atomics (gate on Caps().Atomics)")
}
