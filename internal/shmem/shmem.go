// Package shmem is the simulator's one PGAS core, modeled on NVSHMEM:
// a symmetric heap per PE, nonblocking puts, the fused put-with-signal
// operation the paper's GPU codes use (nvshmem_double_put_signal_nbi),
// signal waiting (wait_until_all / wait_until_any), remote atomics
// (compare-and-swap, fetch-and-add), quiet, and a dissemination
// barrier. Ring collectives live in the separate internal/ccl layer.
//
// One implementation serves three issue paths, chosen by the
// machine.Transport a Job is built on. They differ only in how a put
// leaves the host and in what Quiet waits on:
//
//   - GPUShmem: device-initiated puts, 1 op per put and 2 per fused
//     put-with-signal; Quiet charges one op.
//   - StreamTriggered (Bridges et al.): every put is a descriptor the
//     host enqueues onto the PE's gpu.Stream for OpsPerMsg tiny ops; it
//     fires TriggerLatency after its stream predecessor has completed,
//     and the put hook records the fire as its issue time. Quiet
//     charges one op and waits for every descriptor to fire and deliver.
//   - MemChannel (RAMC, Schonbein et al.): every put is a write into
//     the ordered runtime.Channel toward its destination, opened on
//     the first write and charging its own op. Channel order replaces
//     per-op completion and makes the signal correct; Quiet drains the
//     PE's channels in destination order.
//
// Remote memory, puts, atomics and the barrier are internal/runtime's:
// each heap is a lazy runtime.Mem, whose data region below the signal
// words is made on first real use.
//
// GPU execution is modeled with contexts (Ctx): every PE gets one
// kernel context, and ForkJoin spawns block contexts for the
// thread-block-level concurrency that gives GPUs their messaging and
// compute throughput.
package shmem

import (
	"cmp"
	"fmt"
	"slices"

	"msgroofline/internal/gpu"
	"msgroofline/internal/machine"
	"msgroofline/internal/runtime"
	"msgroofline/internal/sim"
)

// Job is one SHMEM program: npes PEs with symmetric heaps, issuing
// puts over one PGAS transport.
type Job struct {
	world *runtime.World
	tr    machine.Transport
	tp    machine.TransportParams
	pes   []*PE
	// hook, when set, observes every user put at delivery time.
	hook runtime.MsgHook
	done func(src, dst int) // j.completed, bound once
	// unordered is copied into every channel a PE opens (see
	// SetDebugUnordered).
	unordered bool
}

// SetHook installs a delivery observer for user puts (internal barrier
// traffic excluded). Call before Launch.
func (j *Job) SetHook(h runtime.MsgHook) { j.hook = h }

// NewJob builds a GPU shmem job with npes PEs, each exposing heapBytes
// of symmetric memory. The machine must provide the GPUShmem transport.
func NewJob(cfg *machine.Config, npes, heapBytes int) (*Job, error) {
	return NewJobSharded(cfg, machine.GPUShmem, npes, heapBytes, heapBytes, 1)
}

// NewJobSharded builds a job whose puts leave the host over tr
// (GPUShmem, StreamTriggered or MemChannel). Each PE's heap holds
// heapBytes, with its signal words at [sigBase, heapBytes): they never
// force the lazy data region below them into existence. shards is the
// -shards worker count for the underlying world (see
// runtime.NewWorldSharded; results are byte-identical at every shard
// count).
func NewJobSharded(cfg *machine.Config, tr machine.Transport, npes, heapBytes, sigBase, shards int) (*Job, error) {
	switch tr {
	case machine.GPUShmem, machine.StreamTriggered, machine.MemChannel:
	default:
		return nil, fmt.Errorf("shmem: %s is not a PGAS transport", tr)
	}
	if heapBytes < 0 {
		return nil, fmt.Errorf("shmem: negative heap size")
	}
	if sigBase < 0 || sigBase > heapBytes {
		return nil, fmt.Errorf("shmem: signal offset %d outside a %d-byte heap", sigBase, heapBytes)
	}
	tp, ok := cfg.Params(tr)
	if !ok {
		return nil, fmt.Errorf("shmem: machine %s has no %s transport", cfg.Name, tr)
	}
	w, err := runtime.NewWorldSharded(cfg, npes, shards)
	if err != nil {
		return nil, err
	}
	j := &Job{world: w, tr: tr, tp: tp}
	j.done = j.completed
	for pe := 0; pe < npes; pe++ {
		eng := w.EngineOf(pe)
		p := &PE{job: j, id: pe, ep: w.Endpoint(pe), mem: runtime.NewMem(heapBytes, sigBase),
			landed: sim.NewCond(eng), quiesced: sim.NewCond(eng)}
		if tr == machine.StreamTriggered {
			p.stream = gpu.NewStream(tp.TriggerLatency)
		}
		j.pes = append(j.pes, p)
	}
	bars := runtime.NewBarriers(w, runtime.BarrierCost{TP: tp, Bytes: 8},
		func(pe int) *sim.Cond { return sim.NewCond(w.EngineOf(pe)) },
		func(pe int) *sim.Cond { return j.pes[pe].quiesced })
	for pe, b := range bars {
		j.pes[pe].bar = b
	}
	return j, nil
}

// SetDebugUnordered deliberately breaks the ordering contract of the
// issue paths that have one: stream-triggered descriptors fire without
// waiting for their stream predecessors, and memory channels bypass
// the receive resequencer. It exists so the conformance ordering
// oracles can prove they catch the violation; never set it outside
// tests. Call before Launch.
func (j *Job) SetDebugUnordered(v bool) {
	j.unordered = v
	for _, pe := range j.pes {
		if pe.stream != nil {
			pe.stream.SetUnordered(v)
		}
	}
}

// NPEs returns the number of PEs.
func (j *Job) NPEs() int { return len(j.pes) }

// World exposes the underlying simulated world.
func (j *Job) World() *runtime.World { return j.world }

// Digest folds the per-group event-order digests of the underlying
// world into one summary of the run (see runtime.World.Digest).
func (j *Job) Digest() uint64 { return j.world.Digest() }

// Elapsed returns the simulated time consumed so far.
func (j *Job) Elapsed() sim.Time { return j.world.Elapsed() }

// PE returns PE number i (for post-run inspection of heaps).
func (j *Job) PE(i int) *PE { return j.pes[i] }

// Launch starts one kernel context per PE running body and drives the
// simulation to completion.
func (j *Job) Launch(body func(c *Ctx)) error {
	for _, pe := range j.pes {
		p := pe
		j.world.Spawn(p.id, fmt.Sprintf("pe%d", p.id), func(proc *sim.Proc) {
			body(&Ctx{pe: p, proc: proc})
		})
	}
	return j.world.Run()
}

// PE is one processing element with its symmetric heap.
type PE struct {
	job *Job
	id  int
	ep  *runtime.Endpoint
	mem runtime.Mem // the symmetric heap
	// stream is the PE's device stream on StreamTriggered (nil
	// otherwise); chans the MemChannel channels it has written to,
	// sorted by Dst().
	stream *gpu.Stream
	chans  []*runtime.Channel

	// outstanding counts puts not yet remotely complete (channel
	// writes are tracked by their channels, barrier signals by bar).
	outstanding   int
	landed        *sim.Cond // signaled when data lands in this PE's heap
	quiesced      *sim.Cond // signaled when a put or barrier signal completes
	bar           *runtime.Barrier
	puts, atomics int64
}

// ID returns the PE number.
func (pe *PE) ID() int { return pe.id }

// Heap returns the PE's symmetric heap for direct local access,
// allocating its data region if nothing has yet.
func (pe *PE) Heap() []byte { return pe.mem.Bytes() }

// View returns heap bytes [off, off+n) for reading. While the data
// region is still unallocated they are all zero and come back as the
// read-only zero view of runtime.Blank.
func (pe *PE) View(off, n int) []byte { return pe.mem.View(off, n) }

// Uint64At reads a little-endian uint64 at off in the local heap.
func (pe *PE) Uint64At(off int) uint64 { return pe.mem.Load(off) }

// Stream returns the PE's device stream on StreamTriggered (nil
// otherwise), whose enqueue/ready/fire log feeds the conformance
// stream-ordering oracle.
func (pe *PE) Stream() *gpu.Stream { return pe.stream }

// Channels returns the memory channels this PE has written to, in
// destination order, whose FIFO checks feed the conformance
// channel-FIFO oracle.
func (pe *PE) Channels() []*runtime.Channel { return pe.chans }

// OpStats returns cumulative put and atomic counts for this PE.
func (pe *PE) OpStats() (puts, atomics int64) { return pe.puts, pe.atomics }

// Outstanding returns the number of this PE's puts and barrier
// signals still in flight, channel writes excepted (conformance
// oracles check it is zero after Quiet and at exit).
func (pe *PE) Outstanding() int { return pe.outstanding + pe.bar.InFlight() }

// Ctx is an execution context: the kernel main context created by
// Launch, or a block context created by ForkJoin. All communication
// is issued through a Ctx so concurrent blocks interleave correctly.
type Ctx struct {
	pe   *PE
	proc *sim.Proc
}

// PE returns the owning processing element.
func (c *Ctx) PE() *PE { return c.pe }

// MyPE returns the PE number (shmem_my_pe).
func (c *Ctx) MyPE() int { return c.pe.id }

// NPEs returns the job size (shmem_n_pes).
func (c *Ctx) NPEs() int { return c.pe.job.NPEs() }

// Proc exposes the simulated process (for Sleep etc.).
func (c *Ctx) Proc() *sim.Proc { return c.proc }

// Now returns the current simulated time.
func (c *Ctx) Now() sim.Time { return c.proc.Now() }

// Compute blocks the context for d of SM time.
func (c *Ctx) Compute(d sim.Time) { c.proc.Sleep(d) }

// ForkJoin spawns n block contexts running body concurrently on this
// PE and blocks until all complete — the thread-block parallelism of
// a GPU kernel.
func (c *Ctx) ForkJoin(n int, body func(blk *Ctx, i int)) {
	if n <= 0 {
		return
	}
	// Block contexts belong to this PE, so they spawn on its engine.
	eng := c.proc.Engine()
	done := 0
	cond := sim.NewCond(eng)
	for i := 0; i < n; i++ {
		idx := i
		eng.Spawn(fmt.Sprintf("pe%d/blk%d", c.pe.id, idx), func(proc *sim.Proc) {
			body(&Ctx{pe: c.pe, proc: proc}, idx)
			done++
			cond.Broadcast()
		})
	}
	cond.WaitFor(c.proc, func() bool { return done == n })
}

// PutNBI starts a nonblocking put of data into dst's heap at dstOff
// (nvshmem_putmem_nbi). Completion is observed via Quiet.
func (c *Ctx) PutNBI(dst, dstOff int, data []byte) {
	c.putNBIOn(dst, dstOff, data, -1, 0, -1, 1)
}

// PutSignalNBI is the fused put-with-signal
// (nvshmem_double_put_signal_nbi): data lands at dstOff, then the
// uint64 signal at sigOff is set to sigVal, ordered after the data.
func (c *Ctx) PutSignalNBI(dst, dstOff int, data []byte, sigOff int, sigVal uint64) {
	c.putNBIOn(dst, dstOff, data, sigOff, sigVal, -1, 2)
}

// PutSignalNBICh is PutSignalNBI pinned to an injection channel, used
// by the message-splitting experiments to place sub-messages on
// distinct NVLink port groups.
func (c *Ctx) PutSignalNBICh(dst, dstOff int, data []byte, sigOff int, sigVal uint64, ch int) {
	c.putNBIOn(dst, dstOff, data, sigOff, sigVal, ch, 2)
}

// putNBIOn issues one put, fused with a signal when sigOff >= 0 (the
// signal word rides the payload flight), on injection channel ch (< 0
// picks the next one round-robin). GPUShmem charges ops device ops;
// the other issue paths charge their own (see the package doc).
func (c *Ctx) putNBIOn(dst, dstOff int, data []byte, sigOff int, sigVal uint64, ch, ops int) {
	pe := c.pe
	job := pe.job
	if dst < 0 || dst >= job.NPEs() {
		panic(fmt.Sprintf("shmem: put to invalid PE %d", dst))
	}
	target := job.pes[dst]
	if dstOff < 0 || dstOff+len(data) > target.mem.Size() {
		panic(fmt.Sprintf("shmem: put [%d,%d) outside PE %d heap (%d bytes)",
			dstOff, dstOff+len(data), dst, target.mem.Size()))
	}
	if sigOff >= 0 && sigOff+8 > target.mem.Size() {
		panic(fmt.Sprintf("shmem: signal offset %d outside PE %d heap", sigOff, dst))
	}
	switch job.tr {
	case machine.GPUShmem:
		// A device put takes its channel at issue, before its ops: block
		// contexts charged concurrently keep their issue order on the
		// channels. The offload paths take theirs as the put leaves.
		if ch < 0 {
			ch = pe.ep.AutoChannel()
		}
	case machine.StreamTriggered:
		ops = job.tp.OpsPerMsg
	case machine.MemChannel:
		ops = 0
	}
	for i := 0; i < ops; i++ {
		pe.ep.ChargeOp(c.proc, job.tp)
	}
	issue := c.proc.Now()
	if pe.stream != nil {
		issue = pe.stream.Enqueue(issue)
	}
	pe.puts++
	if ch < 0 {
		ch = pe.ep.AutoChannel()
	}
	put := runtime.Put{Dst: dst, Mem: &target.mem, Wake: target.landed, Off: dstOff,
		Signal: sigOff >= 0, SigOff: sigOff, SigVal: sigVal, Issue: issue, Hook: job.hook}
	if job.tr == machine.MemChannel {
		// Channel order is the completion: the write only frees a credit.
		pe.channel(dst).Put(c.proc, put, data, ch)
		return
	}
	pe.outstanding++
	put.Done = job.done
	if pe.stream != nil {
		pe.ep.PutAt(&job.tp, put, data, ch, issue)
	} else {
		pe.ep.Put(job.tp, put, data, ch)
	}
}

// channel returns this PE's memory channel toward dst, opening it on
// the first write.
func (pe *PE) channel(dst int) *runtime.Channel {
	i, found := slices.BinarySearchFunc(pe.chans, dst, func(c *runtime.Channel, dst int) int {
		return cmp.Compare(c.Dst(), dst)
	})
	if !found {
		c := runtime.NewChannel(pe.ep, dst, pe.job.tp)
		c.SetUnordered(pe.job.unordered)
		pe.chans = slices.Insert(pe.chans, i, c)
	}
	return pe.chans[i]
}

// completed is the local half of src's puts, at their remote completion.
func (j *Job) completed(src, _ int) {
	pe := j.pes[src]
	pe.outstanding--
	pe.quiesced.Broadcast()
}

// Quiet blocks until all puts issued by this PE have completed
// remotely (nvshmem_quiet). GPUShmem and StreamTriggered charge one op;
// MemChannel drains its channels in destination order, the transport's
// native fence.
func (c *Ctx) Quiet() {
	pe := c.pe
	if pe.job.tr != machine.MemChannel {
		pe.ep.ChargeOp(c.proc, pe.job.tp)
	}
	for _, ch := range pe.chans {
		ch.Drain(c.proc)
	}
	pe.quiesced.WaitFor(c.proc, func() bool { return pe.Outstanding() == 0 })
}

// WaitUntilAll blocks until every listed local signal slot equals
// val (nvshmem_uint64_wait_until_all).
func (c *Ctx) WaitUntilAll(sigOffs []int, val uint64) {
	c.pe.landed.WaitFor(c.proc, func() bool {
		for _, off := range sigOffs {
			if c.pe.Uint64At(off) != val {
				return false
			}
		}
		return true
	})
}

// WaitUntilAny blocks until at least one unmasked local signal slot
// equals val, and returns its index (nvshmem_uint64_wait_until_any).
// mask[i] true means slot i is already consumed and is skipped; the
// caller typically sets mask[i] after processing.
func (c *Ctx) WaitUntilAny(sigOffs []int, mask []bool, val uint64) int {
	found := -1
	c.pe.landed.WaitFor(c.proc, func() bool {
		found = c.pe.mem.FirstEqual(sigOffs, mask, val)
		return found >= 0
	})
	return found
}

// AtomicCompareSwap performs a remote CAS on the uint64 at (dst, off):
// if it equals cond it becomes val; the previous value is returned
// (nvshmem_uint64_atomic_compare_swap). Blocks for the round trip.
func (c *Ctx) AtomicCompareSwap(dst, off int, cond, val uint64) uint64 {
	return c.atomic(dst, off, true, cond, val)
}

// AtomicFetchAdd atomically adds delta to the remote uint64 and
// returns the previous value (nvshmem_uint64_atomic_fetch_add).
func (c *Ctx) AtomicFetchAdd(dst, off int, delta uint64) uint64 {
	return c.atomic(dst, off, false, 0, delta)
}

func (c *Ctx) atomic(dst, off int, cas bool, compare, operand uint64) uint64 {
	pe := c.pe
	pe.atomics++
	return pe.ep.RemoteAtomic(c.proc, pe.job.tp, dst, &pe.job.pes[dst].mem, off, cas, compare, operand)
}

// Barrier synchronizes all PEs (nvshmem_barrier_all): quiet, then
// runtime's dissemination barrier of raw 8-byte signals (outside any
// stream or channel, not traced), one op per round, paying log2(NPEs)
// small-message latencies. Quiet also waits for its signals.
func (c *Ctx) Barrier() {
	c.Quiet()
	c.pe.bar.Wait(c.proc)
}
