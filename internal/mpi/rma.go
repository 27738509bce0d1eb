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
	puts, gets, atomics []int64
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
		gets:        make([]int64, c.Size()),
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
func (w *Win) OpStats() (puts, gets, atomics int64) {
	for r := range w.puts {
		puts += w.puts[r]
		gets += w.gets[r]
		atomics += w.atomics[r]
	}
	return puts, gets, atomics
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

// Get fills buf with len(buf) bytes of src's window at srcOff, like
// MPI_Get into an origin buffer. It blocks until the data arrives (put
// semantics reversed: a request flight, then the payload rides the
// fabric back reserving reverse-path links).
func (r *Rank) Get(w *Win, src, srcOff int, buf []byte) {
	w.checkRange(src, srcOff, len(buf))
	r.ep.ChargeOp(r.proc, r.comm.one)
	w.gets[r.id]++
	g := r.get
	if g == nil {
		g = &getRec{r: r}
		g.serve, g.request, g.arrive, g.ready = g.runServe, g.runRequest, g.runArrive, g.isDone
		r.get = g
	}
	world := r.comm.world
	now := r.proc.Now()
	g.w, g.src, g.off, g.buf, g.done = w, src, srcOff, buf, false
	g.at = now + r.ep.WireLatency(src) + r.comm.one.SoftLatency/2
	if world.GroupOf(r.id) == world.GroupOf(src) {
		world.EngineOf(r.id).At(g.at, g.serve)
	} else {
		// Cross-group: route the request through the barrier so the
		// event lands on src's engine without racing its window. The
		// request flight is at least one link latency, so g.at is past
		// the window bound by construction.
		world.Coupled().Defer(r.id, now, g.request)
	}
	w.originDone[r.id].WaitFor(r.proc, g.ready)
}

// getRec is a rank's Get in flight, made on its first Get and reused
// after: Get blocks, so a rank has at most one. Its methods are bound
// once, so a Get allocates nothing.
type getRec struct {
	r        *Rank
	w        *Win
	src, off int
	buf      []byte
	at       sim.Time // the request's arrival at src
	done     bool

	serve, request func()
	arrive         func(at sim.Time)
	ready          func() bool
}

// runServe runs on src's engine (owner-computes): it reads the exposed
// memory there into the origin's buffer, which the origin does not
// touch until runArrive, and injects the payload back toward it.
func (g *getRec) runServe() {
	copy(g.buf, g.w.View(g.src, g.off, len(g.buf)))
	ep := g.r.comm.world.Endpoint(g.src)
	ep.Inject(g.r.comm.one, g.r.id, int64(len(g.buf)), ep.AutoChannel(), g.arrive, nil)
}

func (g *getRec) runRequest() { g.r.comm.world.Coupled().At(g.src, g.at, g.serve) }

func (g *getRec) runArrive(sim.Time) {
	g.done = true
	g.w.originDone[g.r.id].Broadcast()
}

func (g *getRec) isDone() bool { return g.done }

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

// PutNotify is the extension operation of the paper's conclusion:
// hardware-level put-with-signal (foMPI-style notified access). The
// data and the uint64 notification value land in the target window in
// one fused operation — one flight, one remote-completion event —
// instead of the standard 4-op put/flush/put/flush protocol. It
// requires the machine's NotifiedAccess transport.
func (r *Rank) PutNotify(w *Win, dst, dstOff int, data []byte, sigOff int, sigVal uint64) error {
	if !r.comm.hasNtf {
		return fmt.Errorf("mpi: machine has no notified-access transport")
	}
	w.checkRange(dst, dstOff, len(data))
	w.checkRange(dst, sigOff, 8)
	tp := r.comm.ntf
	// Fused operation: both halves charged at the origin.
	r.ep.ChargeOp(r.proc, tp)
	r.ep.ChargeOp(r.proc, tp)
	p := w.put(r, dst, dstOff)
	p.Signal, p.SigOff, p.SigVal = true, sigOff, sigVal
	r.ep.Put(tp, p, data, r.ep.AutoChannel())
	return nil
}

// WaitNotify blocks until the uint64 notification at sigOff in this
// rank's window equals val — the receiver side of notified access,
// with no user polling loop to pay for.
func (r *Rank) WaitNotify(w *Win, sigOff int, val uint64) {
	w.targetDone[r.id].WaitFor(r.proc, func() bool {
		return w.Uint64At(r.id, sigOff) == val
	})
}

// WaitNotifyAny blocks until any unmasked notification slot equals
// val and returns its index (the notified-access counterpart of
// nvshmem_wait_until_any).
func (r *Rank) WaitNotifyAny(w *Win, sigOffs []int, mask []bool, val uint64) int {
	found := -1
	w.targetDone[r.id].WaitFor(r.proc, func() bool {
		found = w.mem[r.id].FirstEqual(sigOffs, mask, val)
		return found >= 0
	})
	return found
}
