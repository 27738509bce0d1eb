package mpi

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"msgroofline/internal/runtime"
	"msgroofline/internal/sim"
)

// Win is an MPI-3 RMA window: one exposed memory region per rank plus
// the bookkeeping for completion (flush/fence) semantics. Windows are
// created on the communicator before Launch (setup phase), mirroring
// a collective MPI_Win_create executed at startup.
type Win struct {
	comm  *Comm
	sizes []int
	// bufs[r] is rank r's exposed memory, made on first real use: a
	// window that only receives blank payloads (runtime.Blank) never
	// holds its bytes, and reads of it see zeros. Only r's engine, or
	// setup code before Launch, touches bufs[r].
	bufs [][]byte

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
	// targetDone[target] is signaled whenever any put or accumulate
	// lands in target's memory (receivers poll on it); bound to
	// target's engine.
	targetDone []*sim.Cond

	// Per-origin-rank op counters (rank-confined; OpStats sums them).
	puts, gets, atomics []int64
	// hook, when set, observes every put at delivery time, running on
	// the target's engine — it must be safe under parallel windows.
	hook MsgHook
}

// SetHook installs a hook observing puts (data landing in target
// memory). Call before Launch.
func (w *Win) SetHook(h MsgHook) { w.hook = h }

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
		sizes:       append([]int(nil), sizes...),
		bufs:        make([][]byte, c.Size()),
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
		w.originDone = append(w.originDone, sim.NewCond(c.world.EngineOf(r)))
		w.targetDone = append(w.targetDone, sim.NewCond(c.world.EngineOf(r)))
	}
	c.wins = append(c.wins, w)
	return w, nil
}

// Local returns rank's exposed memory for direct local access (the
// PGAS view of one's own window), making it if nothing has yet.
func (w *Win) Local(rank int) []byte {
	if w.bufs[rank] == nil {
		w.bufs[rank] = make([]byte, w.sizes[rank])
	}
	return w.bufs[rank]
}

// View returns bytes [off, off+n) of rank's window for reading. While
// the window's memory is still unmade they are all zero and come back
// as the read-only zero view of runtime.Blank.
func (w *Win) View(rank, off, n int) []byte {
	if w.bufs[rank] == nil {
		w.checkRange(rank, off, n)
		return runtime.Blank(n)
	}
	return w.bufs[rank][off : off+n]
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
	o := r.startPut(w, dst, dstOff, data, false, 0, 0)
	r.ep.Inject(r.comm.one, dst, o.bytes, ch, o.remote, o.local)
}

// Get fetches n bytes from src's window at srcOff. It blocks until
// the data arrives (put semantics reversed: a request flight, then
// the payload rides the fabric back reserving reverse-path links).
func (r *Rank) Get(w *Win, src, srcOff, n int) []byte {
	w.checkRange(src, srcOff, n)
	r.ep.ChargeOp(r.proc, r.comm.one)
	me := r.id
	w.gets[me]++
	world := r.comm.world
	now := r.proc.Now()
	reqArrive := now + r.ep.WireLatency(src) + r.comm.one.SoftLatency/2
	var out []byte
	srcEp := world.Endpoint(src)
	// serve runs on src's engine (owner-computes): read the exposed
	// memory there and inject the payload back toward the origin.
	serve := func() {
		data := make([]byte, n)
		copy(data, w.View(src, srcOff, n))
		srcEp.Inject(r.comm.one, me, int64(n), srcEp.AutoChannel(), func(at sim.Time) {
			out = data
			w.originDone[me].Broadcast()
		}, nil)
	}
	if world.GroupOf(me) == world.GroupOf(src) {
		world.EngineOf(me).At(reqArrive, serve)
	} else {
		// Cross-group: route the request through the barrier so the
		// event lands on src's engine without racing its window. The
		// request flight is at least one link latency, so reqArrive is
		// past the window bound by construction.
		world.Coupled().Defer(me, now, func() {
			world.Coupled().At(src, reqArrive, serve)
		})
	}
	w.originDone[me].WaitFor(r.proc, func() bool { return out != nil })
	return out
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

// issue counts a put from origin to dst as in flight.
func (w *Win) issue(origin, dst int) {
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

// SetUint64At writes v at off in rank's window (local initialization).
func (w *Win) SetUint64At(rank, off int, v uint64) {
	binary.LittleEndian.PutUint64(w.Local(rank)[off:off+8], v)
}

// CompareAndSwap atomically compares the uint64 at (dst, dstOff) with
// compare and, if equal, replaces it with swap. It returns the value
// observed before the operation (MPI_Compare_and_swap). The caller
// blocks for the full atomic round trip.
func (r *Rank) CompareAndSwap(w *Win, dst, dstOff int, compare, swap uint64) uint64 {
	w.checkRange(dst, dstOff, 8)
	w.atomics[r.id]++
	return r.atomic(atomicOp{w: w, dst: dst, off: dstOff, cas: true, compare: compare, operand: swap})
}

// FetchAndAdd atomically adds delta to the uint64 at (dst, dstOff)
// and returns the previous value (MPI_Fetch_and_op with MPI_SUM).
func (r *Rank) FetchAndAdd(w *Win, dst, dstOff int, delta uint64) uint64 {
	w.checkRange(dst, dstOff, 8)
	w.atomics[r.id]++
	return r.atomic(atomicOp{w: w, dst: dst, off: dstOff, operand: delta})
}

// atomicOp is a remote atomic on the uint64 at (dst, off) of w:
// compare-and-swap to operand when cas is set, fetch-and-add of
// operand otherwise.
type atomicOp struct {
	w        *Win
	dst, off int
	cas      bool
	compare  uint64
	operand  uint64
}

// apply runs on dst's engine at the service instant and returns the
// value seen before the operation.
func (a *atomicOp) apply() uint64 {
	old := a.w.Uint64At(a.dst, a.off)
	switch {
	case !a.cas:
		a.w.SetUint64At(a.dst, a.off, old+a.operand)
	case old == a.compare:
		a.w.SetUint64At(a.dst, a.off, a.operand)
	}
	return old
}

// atomic runs op as the rank's one atomic in flight. The rank's
// process blocks until it returns, so one record per rank suffices and
// no closure is made per call.
func (r *Rank) atomic(op atomicOp) uint64 {
	r.amo = op
	if r.amoApply == nil {
		r.amoApply = r.amo.apply
	}
	return r.ep.RemoteAtomic(r.proc, r.comm.one, op.dst, r.amoApply)
}

func (w *Win) checkRange(rank, off, n int) {
	if rank < 0 || rank >= len(w.sizes) {
		panic(fmt.Sprintf("mpi: window access to invalid rank %d", rank))
	}
	if off < 0 || off+n > w.sizes[rank] {
		panic(fmt.Sprintf("mpi: window access [%d, %d) outside rank %d's %d-byte region",
			off, off+n, rank, w.sizes[rank]))
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
	o := r.startPut(w, dst, dstOff, data, true, sigOff, sigVal)
	r.ep.Inject(tp, dst, o.bytes, r.ep.AutoChannel(), o.remote, o.local)
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
		for i, off := range sigOffs {
			if mask != nil && mask[i] {
				continue
			}
			if w.Uint64At(r.id, off) == val {
				found = i
				return true
			}
		}
		return false
	})
	return found
}

// putOp is one Put or PutNotify in flight, pooled per origin rank. Its
// remote half lands the payload on dst's engine; its local half
// retires the put on the origin's. The two halves of a cross-group put
// run on different engines at the same simulated instant, possibly at
// once, so the remote half marks the record landed last, and the
// origin reuses a record only once its local half has run and it is
// marked landed. Both lists (Rank.puts, Rank.putsLimbo) are touched
// only from the origin's engine.
type putOp struct {
	r        *Rank // origin
	w        *Win
	dst, off int
	buf      []byte // staged payload (nil for a blank one)
	bytes    int64  // payload size the hook sees (plus 8 when notified)
	notify   bool
	sigOff   int
	sigVal   uint64
	issue    sim.Time
	landed   atomic.Bool

	remote, local func(at sim.Time) // o.land and o.retire, bound once
	next          *putOp
}

// startPut counts a put as issued and fills a pooled record for it.
func (r *Rank) startPut(w *Win, dst, off int, data []byte, notify bool, sigOff int, sigVal uint64) *putOp {
	o := r.putOp()
	o.w, o.dst, o.off = w, dst, off
	o.buf = runtime.Stage(data)
	o.bytes = int64(len(data))
	if notify {
		o.bytes += 8
	}
	o.notify, o.sigOff, o.sigVal = notify, sigOff, sigVal
	w.issue(r.id, dst)
	w.puts[r.id]++
	o.issue = r.proc.Now()
	return o
}

// putOp takes a put record: a free one, else a parked one whose remote
// half has since run, else a new one.
func (r *Rank) putOp() *putOp {
	o := r.puts
	if o == nil {
		for p := &r.putsLimbo; *p != nil; {
			if q := *p; q.landed.Load() {
				*p = q.next
				q.next, r.puts = r.puts, q
			} else {
				p = &q.next
			}
		}
		o = r.puts
	}
	if o == nil {
		o = &putOp{r: r}
		o.remote, o.local = o.land, o.retire
		return o
	}
	r.puts = o.next
	o.landed.Store(false)
	return o
}

// land is the remote half, on dst's engine: the target-memory write,
// the notification, the hook and the target signal.
func (o *putOp) land(at sim.Time) {
	w, dst := o.w, o.dst
	if o.buf != nil {
		runtime.Land(w.Local(dst)[o.off:], o.buf)
	}
	if o.notify {
		w.SetUint64At(dst, o.sigOff, o.sigVal)
	}
	if w.hook != nil {
		w.hook(o.r.id, dst, o.bytes, o.issue, at)
	}
	cond := w.targetDone[dst]
	// The origin may reuse the record as soon as it reads landed.
	o.landed.Store(true)
	cond.Broadcast()
}

// retire is the local half, on the origin's engine: the
// outstanding-count completion and origin signal. It then returns the
// record, to the free list when its remote half has run and to the
// limbo list otherwise.
func (o *putOp) retire(sim.Time) {
	r := o.r
	o.w.complete(r.id, o.dst)
	if o.landed.Load() {
		o.next, r.puts = r.puts, o
	} else {
		o.next, r.putsLimbo = r.putsLimbo, o
	}
}
