// Package shmem provides a simulated NVSHMEM-style PGAS layer for the
// GPU machines: a symmetric heap per PE, device-initiated nonblocking
// puts, the fused put-with-signal operation the paper's GPU codes use
// (nvshmem_double_put_signal_nbi), signal waiting
// (wait_until_all / wait_until_any), remote atomics
// (compare-and-swap, fetch-and-add), quiet, and a dissemination
// barrier. Ring collectives live in the separate internal/ccl layer.
//
// GPU execution is modeled with contexts (Ctx): every PE gets one
// kernel context, and ForkJoin spawns additional block contexts so
// workloads can express the thread-block-level concurrency that gives
// GPUs their messaging and compute throughput.
package shmem

import (
	"encoding/binary"
	"fmt"

	"msgroofline/internal/machine"
	"msgroofline/internal/runtime"
	"msgroofline/internal/sim"
)

// Job is one SHMEM program: npes PEs with symmetric heaps on a GPU
// machine.
type Job struct {
	world *runtime.World
	tp    machine.TransportParams
	pes   []*PE
	// putHook, when set, observes every user put at delivery time.
	putHook PutHook
}

// PutHook observes a put: source PE, destination PE, payload size
// (including a ridden signal word), issue time and delivery time.
type PutHook func(src, dst int, bytes int64, issue, deliver sim.Time)

// SetPutHook installs a delivery observer for user puts (internal
// barrier traffic excluded). Call before Launch.
func (j *Job) SetPutHook(h PutHook) { j.putHook = h }

// NewJob builds a SHMEM job with npes PEs, each exposing heapBytes of
// symmetric memory. The machine must provide the GPUShmem transport.
func NewJob(cfg *machine.Config, npes, heapBytes int) (*Job, error) {
	return NewJobSharded(cfg, npes, heapBytes, 1)
}

// NewJobSharded is NewJob with a -shards worker count for the
// underlying world (see runtime.NewWorldSharded: PEs are grouped by
// fabric node on the coupled conservative-lookahead engine, and
// shards sets how many node groups execute concurrently; results are
// byte-identical at every shard count).
func NewJobSharded(cfg *machine.Config, npes, heapBytes, shards int) (*Job, error) {
	tp, ok := cfg.Params(machine.GPUShmem)
	if !ok {
		return nil, fmt.Errorf("shmem: machine %s has no GPU-initiated transport", cfg.Name)
	}
	if heapBytes < 0 {
		return nil, fmt.Errorf("shmem: negative heap size")
	}
	w, err := runtime.NewWorldSharded(cfg, npes, shards)
	if err != nil {
		return nil, err
	}
	j := &Job{world: w, tp: tp}
	for pe := 0; pe < npes; pe++ {
		eng := w.EngineOf(pe)
		j.pes = append(j.pes, &PE{
			job:      j,
			id:       pe,
			ep:       w.Endpoint(pe),
			heap:     make([]byte, heapBytes),
			landed:   sim.NewCond(eng),
			quiesced: sim.NewCond(eng),
			barSig:   make([]uint64, 64),
			barCond:  sim.NewCond(eng),
		})
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

// PE is one processing element (a GPU) with its symmetric heap.
type PE struct {
	job  *Job
	id   int
	ep   *runtime.Endpoint
	heap []byte

	outstanding int       // device-initiated puts not yet delivered
	landed      *sim.Cond // signaled when data lands in this PE's heap
	quiesced    *sim.Cond // signaled when one of this PE's puts completes

	barSig  []uint64 // internal barrier signal slots (per round)
	barCond *sim.Cond
	barSeq  int

	puts, atomics int64
}

// ID returns the PE number.
func (pe *PE) ID() int { return pe.id }

// Heap returns the PE's symmetric heap for direct local access.
func (pe *PE) Heap() []byte { return pe.heap }

// Uint64At reads a little-endian uint64 at off in the local heap.
func (pe *PE) Uint64At(off int) uint64 {
	return binary.LittleEndian.Uint64(pe.heap[off : off+8])
}

// SetUint64At writes a little-endian uint64 at off in the local heap.
func (pe *PE) SetUint64At(off int, v uint64) {
	binary.LittleEndian.PutUint64(pe.heap[off:off+8], v)
}

// OpStats returns cumulative put and atomic counts for this PE.
func (pe *PE) OpStats() (puts, atomics int64) { return pe.puts, pe.atomics }

// Outstanding returns the number of this PE's puts still in flight
// (conformance oracles check it is zero after Quiet and at exit).
func (pe *PE) Outstanding() int { return pe.outstanding }

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
	c.putNBIOn(dst, dstOff, data, -1, 0, c.pe.ep.AutoChannel(), 1)
}

// PutSignalNBI is the fused put-with-signal
// (nvshmem_double_put_signal_nbi): data lands at dstOff, then the
// uint64 signal at sigOff is set to sigVal, ordered after the data.
func (c *Ctx) PutSignalNBI(dst, dstOff int, data []byte, sigOff int, sigVal uint64) {
	c.putNBIOn(dst, dstOff, data, sigOff, sigVal, c.pe.ep.AutoChannel(), 2)
}

// PutSignalNBICh is PutSignalNBI pinned to an injection channel, used
// by the message-splitting experiments to place sub-messages on
// distinct NVLink port groups.
func (c *Ctx) PutSignalNBICh(dst, dstOff int, data []byte, sigOff int, sigVal uint64, ch int) {
	c.putNBIOn(dst, dstOff, data, sigOff, sigVal, ch, 2)
}

func (c *Ctx) putNBIOn(dst, dstOff int, data []byte, sigOff int, sigVal uint64, ch, ops int) {
	pe := c.pe
	job := pe.job
	if dst < 0 || dst >= job.NPEs() {
		panic(fmt.Sprintf("shmem: put to invalid PE %d", dst))
	}
	target := job.pes[dst]
	if dstOff < 0 || dstOff+len(data) > len(target.heap) {
		panic(fmt.Sprintf("shmem: put [%d,%d) outside PE %d heap (%d bytes)",
			dstOff, dstOff+len(data), dst, len(target.heap)))
	}
	if sigOff >= 0 && sigOff+8 > len(target.heap) {
		panic(fmt.Sprintf("shmem: signal offset %d outside PE %d heap", sigOff, dst))
	}
	// The fused operation charges both the put and the signal issue.
	for i := 0; i < ops; i++ {
		pe.ep.ChargeOp(c.proc, job.tp)
	}
	buf := runtime.Stage(data)
	bytes := int64(len(data))
	if sigOff >= 0 {
		bytes += 8 // the signal word rides the same message
	}
	pe.outstanding++
	pe.puts++
	issue := c.proc.Now()
	// Split delivery: heap write, signal word, hook and target wake on
	// the target PE's engine; completion accounting on this PE's.
	pe.ep.Inject(job.tp, dst, bytes, ch, func(at sim.Time) {
		runtime.Land(target.heap[dstOff:], buf)
		if sigOff >= 0 {
			target.SetUint64At(sigOff, sigVal)
		}
		if job.putHook != nil {
			job.putHook(pe.id, dst, bytes, issue, at)
		}
		target.landed.Broadcast()
	}, func(at sim.Time) {
		pe.outstanding--
		pe.quiesced.Broadcast()
	})
}

// Quiet blocks until all puts issued by this PE have completed
// remotely (nvshmem_quiet).
func (c *Ctx) Quiet() {
	c.pe.ep.ChargeOp(c.proc, c.pe.job.tp)
	c.pe.quiesced.WaitFor(c.proc, func() bool { return c.pe.outstanding == 0 })
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
		for i, off := range sigOffs {
			if mask != nil && mask[i] {
				continue
			}
			if c.pe.Uint64At(off) == val {
				found = i
				return true
			}
		}
		return false
	})
	return found
}

// AtomicCompareSwap performs a remote CAS on the uint64 at (dst, off):
// if it equals cond it becomes val; the previous value is returned
// (nvshmem_uint64_atomic_compare_swap). Blocks for the round trip.
func (c *Ctx) AtomicCompareSwap(dst, off int, cond, val uint64) uint64 {
	target := c.pe.job.pes[dst]
	c.pe.atomics++
	return c.pe.ep.RemoteAtomic(c.proc, c.pe.job.tp, dst, func() uint64 {
		old := target.Uint64At(off)
		if old == cond {
			target.SetUint64At(off, val)
		}
		return old
	})
}

// AtomicFetchAdd atomically adds delta to the remote uint64 and
// returns the previous value (nvshmem_uint64_atomic_fetch_add).
func (c *Ctx) AtomicFetchAdd(dst, off int, delta uint64) uint64 {
	target := c.pe.job.pes[dst]
	c.pe.atomics++
	return c.pe.ep.RemoteAtomic(c.proc, c.pe.job.tp, dst, func() uint64 {
		old := target.Uint64At(off)
		target.SetUint64At(off, old+delta)
		return old
	})
}

// Barrier synchronizes all PEs (nvshmem_barrier_all): quiet, then a
// dissemination exchange over internal signal slots, paying
// log2(NPEs) small-message latencies.
func (c *Ctx) Barrier() {
	c.Quiet()
	n := c.NPEs()
	if n == 1 {
		return
	}
	pe := c.pe
	job := pe.job
	seq := pe.barSeq
	pe.barSeq++
	round := 0
	for k := 1; k < n; k <<= 1 {
		dst := job.pes[(pe.id+k)%n]
		slot := (seq*8 + round) % len(dst.barSig)
		gen := uint64(seq + 1)
		// Tiny internal message carrying the round signal.
		pe.ep.ChargeOp(c.proc, job.tp)
		pe.outstanding++
		pe.ep.Inject(job.tp, dst.id, 8, pe.ep.AutoChannel(), func(at sim.Time) {
			dst.barSig[slot] = gen
			dst.barCond.Broadcast()
		}, func(at sim.Time) {
			pe.outstanding--
			pe.quiesced.Broadcast()
		})
		mySlot := (seq*8 + round) % len(pe.barSig)
		pe.barCond.WaitFor(c.proc, func() bool { return pe.barSig[mySlot] >= uint64(seq+1) })
		round++
	}
}
