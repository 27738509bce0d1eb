package mpi

import (
	"encoding/binary"
	"fmt"

	"msgroofline/internal/runtime"
	"msgroofline/internal/sim"
)

// Win is an MPI-3 RMA window: one exposed memory region per rank plus
// the bookkeeping for completion (flush/fence) semantics. Windows are
// created on the communicator before Launch (setup phase), mirroring
// a collective MPI_Win_create executed at startup.
type Win struct {
	comm *Comm
	// mem[r] is rank r's exposed memory, a runtime.Mem with no signal
	// words: made on first real use, so a window that only receives
	// blank payloads (runtime.Blank) never holds its bytes, and reads of
	// it see zeros. Only r's engine, or setup code before Launch,
	// touches mem[r].
	mem []runtime.Mem

	// outstanding[origin][target] counts puts issued by origin that
	// have not yet landed in target memory. Each origin's map holds only
	// targets with puts in flight (a target leaves when its count drops
	// to zero) and pending[origin] is the origin's total, so FlushAll
	// tests one counter. Both are issued and completed on the origin's
	// engine (the local half of the delivery split).
	outstanding []map[int]int
	pending     []int
	// originDone[origin] is signaled whenever one of origin's puts
	// completes remotely (flush waits on it); bound to origin's engine.
	originDone []*sim.Cond
	done       func(origin, dst int) // w.complete, bound once
	// targetDone[target] is signaled whenever any put or accumulate
	// lands in target's memory (receivers poll on it); bound to
	// target's engine.
	targetDone []*sim.Cond

	// Per-origin-rank op counters (rank-confined; OpStats sums them).
	puts, atomics []int64
	// hook, when set, observes every put at delivery time, running on
	// the target's engine — it must be safe under parallel windows.
	hook runtime.MsgHook
}

// SetHook installs a hook observing puts (data landing in target
// memory). Call before Launch.
func (w *Win) SetHook(h runtime.MsgHook) { w.hook = h }

// NewWin collectively creates a window exposing localSize bytes on
// every rank. Call before Launch.
func (c *Comm) NewWin(localSize int) (*Win, error) {
	sizes := make([]int, c.Size())
	for i := range sizes {
		sizes[i] = localSize
	}
	return c.NewWinSizes(sizes)
}

// NewWinSizes creates a window with a per-rank exposed size (ranks
// may expose different amounts, as SpTRSV does for its solution and
// signal buffers).
func (c *Comm) NewWinSizes(sizes []int) (*Win, error) {
	if !c.has1s {
		return nil, fmt.Errorf("mpi: machine has no one-sided transport")
	}
	if len(sizes) != c.Size() {
		return nil, fmt.Errorf("mpi: NewWinSizes needs %d sizes, got %d", c.Size(), len(sizes))
	}
	w := &Win{
		comm:        c,
		mem:         make([]runtime.Mem, c.Size()),
		outstanding: make([]map[int]int, c.Size()),
		pending:     make([]int, c.Size()),
		puts:        make([]int64, c.Size()),
		atomics:     make([]int64, c.Size()),
	}
	for r, s := range sizes {
		if s < 0 {
			return nil, fmt.Errorf("mpi: rank %d: negative window size", r)
		}
		w.mem[r] = runtime.NewMem(s, s)
		w.originDone = append(w.originDone, sim.NewCond(c.world.EngineOf(r)))
		w.targetDone = append(w.targetDone, sim.NewCond(c.world.EngineOf(r)))
	}
	w.done = w.complete
	return w, nil
}

// Local returns rank's exposed memory for direct local access (the
// PGAS view of one's own window), making it if nothing has yet.
func (w *Win) Local(rank int) []byte { return w.mem[rank].Bytes() }

// View returns bytes [off, off+n) of rank's window for reading. While
// the window's memory is still unmade they are all zero and come back
// as the read-only zero view of runtime.Blank.
func (w *Win) View(rank, off, n int) []byte {
	w.checkRange(rank, off, n)
	return w.mem[rank].View(off, n)
}

// OpStats reports cumulative one-sided operation counts (summed over
// the per-rank counters; call between runs or after Launch returns).
func (w *Win) OpStats() (puts, atomics int64) {
	for r := range w.puts {
		puts += w.puts[r]
		atomics += w.atomics[r]
	}
	return puts, atomics
}

// Put starts a nonblocking RMA put of data into dst's window at
// dstOff. Completion at the target is observed via Flush (origin
// side) or by the target polling its memory/signals.
func (r *Rank) Put(w *Win, dst, dstOff int, data []byte) {
	ch := r.ep.AutoChannel()
	w.checkRange(dst, dstOff, len(data))
	r.ep.ChargeOp(r.proc, r.comm.one)
	// Split delivery: the target-memory write, hook and target signal
	// run on dst's engine; the outstanding-count completion and origin
	// signal run on the origin's engine at the same instant.
	r.ep.Put(r.comm.one, w.put(r, dst, dstOff), data, ch)
}

// put counts a put from r to dst as issued and describes it.
func (w *Win) put(r *Rank, dst, off int) runtime.Put {
	w.issue(r.id, dst)
	return runtime.Put{Dst: dst, Mem: &w.mem[dst], Wake: w.targetDone[dst], Off: off,
		Issue: r.proc.Now(), Hook: w.hook, Done: w.done}
}

// Flush blocks until every put this rank issued to dst has completed
// in dst's memory (MPI_Win_flush).
func (r *Rank) Flush(w *Win, dst int) {
	r.ep.ChargeOp(r.proc, r.comm.one)
	w.originDone[r.id].WaitFor(r.proc, func() bool {
		return w.outstanding[r.id][dst] == 0
	})
}

// FlushAll blocks until every put this rank issued to any target has
// completed (MPI_Win_flush_all).
func (r *Rank) FlushAll(w *Win) {
	r.ep.ChargeOp(r.proc, r.comm.one)
	w.originDone[r.id].WaitFor(r.proc, func() bool { return w.pending[r.id] == 0 })
}

// issue counts a put from origin to dst as issued and in flight.
func (w *Win) issue(origin, dst int) {
	w.puts[origin]++
	m := w.outstanding[origin]
	if m == nil {
		m = make(map[int]int)
		w.outstanding[origin] = m
	}
	m[dst]++
	w.pending[origin]++
}

// complete retires a put from origin to dst once it has landed, drops
// dst from origin's map when none remain in flight, and wakes origin's
// flushes.
func (w *Win) complete(origin, dst int) {
	m := w.outstanding[origin]
	if n := m[dst] - 1; n == 0 {
		delete(m, dst)
	} else {
		m[dst] = n
	}
	w.pending[origin]--
	w.originDone[origin].Broadcast()
}

// FlushLocal completes puts locally (the origin buffer is reusable);
// with the eager/copying model this costs only the library call
// (MPI_Win_flush_local).
func (r *Rank) FlushLocal(w *Win, dst int) {
	r.ep.ChargeOp(r.proc, r.comm.one)
}

// Fence is the BSP-style access epoch boundary (MPI_Win_fence): each
// rank completes its outstanding puts everywhere, then all ranks
// synchronize on a barrier; when Fence returns, every put issued
// before the fence (by anyone) is visible everywhere.
func (r *Rank) Fence(w *Win) {
	r.FlushAll(w)
	r.Barrier()
}

// TargetSignal returns the condition signaled whenever RMA traffic
// lands in rank's window memory; receiver-side polling loops (the
// paper's Listing 1) wait on it instead of burning simulated cycles
// in a spin loop, then charge their scan cost explicitly.
func (w *Win) TargetSignal(rank int) *sim.Cond { return w.targetDone[rank] }

// Uint64At reads the little-endian uint64 at off in rank's window.
func (w *Win) Uint64At(rank, off int) uint64 {
	return binary.LittleEndian.Uint64(w.View(rank, off, 8))
}

// CompareAndSwap atomically compares the uint64 at (dst, dstOff) with
// compare and, if equal, replaces it with swap. It returns the value
// observed before the operation (MPI_Compare_and_swap). The caller
// blocks for the full atomic round trip.
func (r *Rank) CompareAndSwap(w *Win, dst, dstOff int, compare, swap uint64) uint64 {
	w.checkRange(dst, dstOff, 8)
	w.atomics[r.id]++
	return r.ep.RemoteAtomic(r.proc, r.comm.one, dst, &w.mem[dst], dstOff, true, compare, swap)
}

// FetchAndAdd atomically adds delta to the uint64 at (dst, dstOff)
// and returns the previous value (MPI_Fetch_and_op with MPI_SUM).
func (r *Rank) FetchAndAdd(w *Win, dst, dstOff int, delta uint64) uint64 {
	w.checkRange(dst, dstOff, 8)
	w.atomics[r.id]++
	return r.ep.RemoteAtomic(r.proc, r.comm.one, dst, &w.mem[dst], dstOff, false, 0, delta)
}

func (w *Win) checkRange(rank, off, n int) {
	if rank < 0 || rank >= len(w.mem) {
		panic(fmt.Sprintf("mpi: window access to invalid rank %d", rank))
	}
	if size := w.mem[rank].Size(); off < 0 || off+n > size {
		panic(fmt.Sprintf("mpi: window access [%d, %d) outside rank %d's %d-byte region",
			off, off+n, rank, size))
	}
}
