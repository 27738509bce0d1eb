// Package shmem is the simulator's one PGAS core, modeled on NVSHMEM:
// a symmetric heap per PE, nonblocking puts, the fused put-with-signal
// operation the paper's GPU codes use (nvshmem_double_put_signal_nbi),
// signal waiting (wait_until_all / wait_until_any), remote atomics
// (compare-and-swap, fetch-and-add), quiet, and a dissemination
// barrier. Ring collectives live in the separate internal/ccl layer.
//
// One implementation serves five issue paths, chosen by the
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
//   - NotifiedAccess (foMPI-style notified access, §V): a CPU rank's
//     put-with-signal in hardware, 1 op per put and 2 per fused
//     put-with-signal. A fused op is locally complete at issue, so
//     Quiet neither charges an op nor waits.
//   - OneSided (MPI-3 RMA): a CPU rank's MPI_Put, 1 op per put, its
//     channel drawn before the op. The data region and the signal
//     words are two windows: only a data put is traced, only a signal
//     put wakes the target, and Flush (one op, then wait) waits for
//     the puts to one destination and window alone. FlushLocal is one
//     op, Quiet is MPI_Win_flush_all (one op, then wait), Fence is
//     Quiet then Barrier, and Barrier is MPI_Barrier, without Quiet.
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
	// sigBase is where every heap's signal words start. On OneSided,
	// landed[area] completes a put into the data region (0) or the
	// signal words (1).
	sigBase int
	landed  [2]func(src, dst int)
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
// (GPUShmem, StreamTriggered, MemChannel, NotifiedAccess or OneSided;
// OneSided also needs the two-sided parameters). Each PE's heap holds
// heapBytes, with its signal words at [sigBase, heapBytes): they never
// force the lazy data region below them into existence. shards is the
// -shards worker count for the underlying world (see
// runtime.NewWorldSharded; results are byte-identical at every shard
// count).
func NewJobSharded(cfg *machine.Config, tr machine.Transport, npes, heapBytes, sigBase, shards int) (*Job, error) {
	switch tr {
	case machine.GPUShmem, machine.StreamTriggered, machine.MemChannel, machine.NotifiedAccess, machine.OneSided:
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
	two, ok := cfg.Params(machine.TwoSided)
	if !ok && tr == machine.OneSided {
		return nil, fmt.Errorf("shmem: machine %s has no %s transport", cfg.Name, machine.TwoSided)
	}
	w, err := runtime.NewWorldSharded(cfg, npes, shards)
	if err != nil {
		return nil, err
	}
	j := &Job{world: w, tr: tr, tp: tp, sigBase: sigBase}
	j.done = j.completed
	for area := range j.landed {
		j.landed[area] = func(src, dst int) {
			pe := j.pes[src]
			i, _ := slices.BinarySearchFunc(pe.flights, dst, flightDst)
			pe.flights[i].n[area]--
			if f := pe.flushed[area]; f != nil {
				f.Broadcast()
			}
			j.completed(src, dst)
		}
	}
	for pe := 0; pe < npes; pe++ {
		eng := w.EngineOf(pe)
		p := &PE{job: j, id: pe, ep: w.Endpoint(pe), mem: runtime.NewMem(heapBytes, sigBase),
			landed: sim.NewCond(eng), quiesced: sim.NewCond(eng)}
		j.pes = append(j.pes, p)
	}
	cost, quiesced := runtime.BarrierCost{TP: tp, Bytes: 8}, func(pe int) *sim.Cond { return j.pes[pe].quiesced }
	if tr == machine.OneSided {
		cost, quiesced = runtime.BarrierCost{TP: two, Bytes: 1, RecvOp: true}, nil
	}
	bars := runtime.NewBarriers(w, cost, func(pe int) *sim.Cond { return sim.NewCond(w.EngineOf(pe)) }, quiesced)
	for pe, b := range bars {
		j.pes[pe].bar = b
	}
	return j, nil
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
// simulation to completion. On StreamTriggered it first makes each PE's
// device stream under the world's chaos, now final (runtime.Chaos).
func (j *Job) Launch(body func(c *Ctx)) error {
	for _, pe := range j.pes {
		p := pe
		if j.tr == machine.StreamTriggered {
			p.stream = gpu.NewStream(j.tp.TriggerLatency, j.world.Chaos().Unordered)
		}
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
	// stream is the PE's device stream on StreamTriggered, made by
	// Launch (nil otherwise); chans the MemChannel channels it has
	// written to, sorted by Dst().
	stream *gpu.Stream
	chans  []*runtime.Channel

	// outstanding counts puts not yet remotely complete (channel
	// writes are tracked by their channels, barrier signals by bar);
	// on OneSided, flights splits them by destination and flushed[area]
	// (made by the area's first Flush) is signaled as they land.
	outstanding   int
	flights       []flight
	flushed       [2]*sim.Cond
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

// Stream returns the PE's device stream on StreamTriggered once
// Launched (nil otherwise), whose fire count and first early fire feed
// the conformance stream-ordering oracle.
func (pe *PE) Stream() *gpu.Stream { return pe.stream }

// Channels returns the memory channels this PE has written to, in
// destination order, whose FIFO checks feed the conformance
// channel-FIFO oracle.
func (pe *PE) Channels() []*runtime.Channel { return pe.chans }

// OpStats returns cumulative put and atomic counts for this PE.
func (pe *PE) OpStats() (puts, atomics int64) { return pe.puts, pe.atomics }

// flight counts one OneSided PE's puts in flight to dst: n[0] into
// the data region, n[1] into the signal words.
type flight struct {
	dst int
	n   [2]int
}

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
// picks the next one round-robin). GPUShmem and NotifiedAccess charge
// ops; the offload paths charge their own (see the package doc).
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
	case machine.GPUShmem, machine.OneSided:
		// A device put takes its channel at issue, before its ops: block
		// contexts charged concurrently keep their issue order on the
		// channels; MPI_Put draws it first too. The offload paths take
		// theirs as the put leaves.
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
	if job.tr == machine.OneSided {
		pe.oneSided(&put)
	}
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
		pe.chans = slices.Insert(pe.chans, i, runtime.NewChannel(pe.ep, dst, pe.job.tp))
	}
	return pe.chans[i]
}

// oneSided counts a OneSided put as in flight to its destination in
// its heap area and sets what its landing does: a put into the signal
// words wakes the target and is not traced, any other put is traced
// and wakes nobody.
func (pe *PE) oneSided(p *runtime.Put) {
	area := pe.job.area(p.Off)
	if area == 0 {
		p.Wake = nil
	} else {
		p.Hook = nil
	}
	i, found := slices.BinarySearchFunc(pe.flights, p.Dst, flightDst)
	if !found {
		pe.flights = slices.Insert(pe.flights, i, flight{dst: p.Dst})
	}
	pe.flights[i].n[area]++
	p.Done = pe.job.landed[area]
}

func flightDst(f flight, dst int) int { return cmp.Compare(f.dst, dst) }

// area is the OneSided window holding heap offset off: 0 for the data
// region, 1 for the signal words.
func (j *Job) area(off int) int {
	if off >= j.sigBase {
		return 1
	}
	return 0
}

// inFlight returns how many of this PE's OneSided puts into area of
// dst's heap have not landed.
func (pe *PE) inFlight(dst, area int) int {
	i, found := slices.BinarySearchFunc(pe.flights, dst, flightDst)
	if !found {
		return 0
	}
	return pe.flights[i].n[area]
}

// completed is the local half of src's puts, at their remote completion.
func (j *Job) completed(src, _ int) {
	pe := j.pes[src]
	pe.outstanding--
	pe.quiesced.Broadcast()
}

// Quiet blocks until all puts issued by this PE have completed
// remotely (nvshmem_quiet, MPI_Win_flush_all). GPUShmem,
// StreamTriggered and OneSided charge one op; MemChannel drains its
// channels in destination order, the transport's native fence.
// NotifiedAccess returns at once: its fused ops need no completion
// call.
func (c *Ctx) Quiet() {
	pe := c.pe
	switch pe.job.tr {
	case machine.NotifiedAccess:
		return
	case machine.GPUShmem, machine.StreamTriggered, machine.OneSided:
		pe.ep.ChargeOp(c.proc, pe.job.tp)
	}
	for _, ch := range pe.chans {
		ch.Drain(c.proc)
	}
	pe.quiesced.WaitFor(c.proc, func() bool { return pe.Outstanding() == 0 })
}

// Flush is MPI_Win_flush on OneSided: it charges one op, then blocks
// until every put this PE issued to dst's window holding off (the data
// region or the signal words) has landed.
func (c *Ctx) Flush(dst, off int) {
	pe := c.pe
	pe.ep.ChargeOp(c.proc, pe.job.tp)
	area := pe.job.area(off)
	if pe.flushed[area] == nil {
		pe.flushed[area] = sim.NewCond(c.proc.Engine())
	}
	pe.flushed[area].WaitFor(c.proc, func() bool { return pe.inFlight(dst, area) == 0 })
}

// FlushLocal is MPI_Win_flush_local on OneSided: one op and no wait,
// since a put stages its payload at issue. The other paths have no
// local completion call, and it is free there.
func (c *Ctx) FlushLocal() {
	if pe := c.pe; pe.job.tr == machine.OneSided {
		pe.ep.ChargeOp(c.proc, pe.job.tp)
	}
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
// small-message latencies. Quiet also waits for its signals, except
// on NotifiedAccess, whose Quiet returns at once. On OneSided it is
// MPI_Barrier, with no quiet (see the package doc).
func (c *Ctx) Barrier() {
	if c.pe.job.tr != machine.OneSided {
		c.Quiet()
	}
	c.pe.bar.Wait(c.proc)
}

// Fence is MPI_Win_fence on OneSided: Quiet, then Barrier. Every put
// issued before any PE's Fence has landed when it returns.
func (c *Ctx) Fence() {
	c.Quiet()
	c.Barrier()
}
