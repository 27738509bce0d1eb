package sim

// Coupled conservative-lookahead engine (DESIGN.md §7).
//
// CoupledEngine runs the process-coupled stacks (internal/runtime and
// the mpi/shmem/comm layers above it) under a YAWNS-style
// conservative-window protocol, with sequential Engines as the
// substrate so blocking procs, condition variables and arbitrary event
// closures keep working unchanged. Ranks are grouped by fabric node
// (same node ⟺ stateless shared-memory delivery), each group owns a
// private Engine, and every window executes each group's events in
// [minNext, minNext+lookahead) — in parallel across up to `workers`
// pool workers — before a barrier applies the window's deferred
// cross-group operations. A cross-group effect emitted
// inside a window lands at least `lookahead` later, so it can never
// fall into its sender's own window.
//
// The window loop is built to scale to thousands of mostly-idle
// groups (a 10K-rank dragonfly decomposes into 1024 node groups, of
// which only a few dozen are typically eligible per window):
//
//   - a window pool without a handshake (runPool): Run's goroutine
//     claims blocks of the active set from an atomic cursor itself,
//     long-lived helpers join through an open/in-flight gate, and they
//     are woken for the first pooled window and for every window of at
//     least wakeMin active groups;
//   - active-group dispatch: only groups whose next event beats the
//     window bound are dispatched; idle groups skip the dispatch, the
//     clock reads, and the deferred-op scan entirely;
//   - an incremental 4-ary tournament tree (mintree.go) over per-group
//     NextAt values replaces the O(G) min scan per window — only
//     groups that executed (read by their workers) or received
//     barrier ops re-publish;
//   - a group's deferred ops go straight into the run of the worker
//     executing it, and each worker sorts its run (sortRun), so the
//     barrier merges one sorted run per worker;
//   - the barrier is one round: it runs its ops one at a time in the
//     merged order, buffering the events they schedule (At), then
//     applies those events in one serial pass.
//
// Cross-group effects never mutate a peer group's state mid-window.
// They are expressed one of two ways:
//
//   - direct scheduling (At) of an event on the target group's engine
//     at a timestamp provably at least `lookahead` past the sender's
//     clock (pure-latency flights: same-window scheduling is safe
//     because the window bound guarantees the target has not executed
//     that far);
//   - deferred operations (Defer) for anything that must serialize
//     through shared state — link-bandwidth reservations and fault
//     draws. Deferred ops carry the key
//     (at, senderRank<<counterBits|senderCounter) drawn from the
//     originating rank's monotone counter, and the barrier applies
//     them in that total order. Because a rank's emissions depend
//     only on its own executed prefix, the order — and therefore
//     every simulated output — is invariant under the worker count,
//     certified by the per-group event-order digests. Deferred ops
//     are leaves: they touch links, fault draws and deliveries (At),
//     and never defer, so one barrier round empties every run.
//
// A one-group world (every rank on one fabric node) runs the same
// loop as one unbounded window, so it executes exactly as the lone
// Engine's Run would and reports a deadlock the same way.

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"
)

const (
	// counterBits is the per-rank stream-counter width inside a
	// deferred-op key; the rank id occupies the bits above it.
	counterBits = 40
	counterMask = (1 << counterBits) - 1
	// maxRanks bounds the rank id so rank<<counterBits cannot
	// overflow the 64-bit key.
	maxRanks = 1 << (64 - counterBits)

	timeMax = Time(math.MaxInt64)

	// DefaultMailboxCap bounds the number of cross-group ops one group
	// may defer within a single window (its share of its worker's
	// run). Exceeding it is a hard error, keeping worst-case memory
	// proportional to groups × cap instead of unbounded.
	DefaultMailboxCap = 1 << 20
)

// deferredOp is one cross-group operation awaiting the window barrier.
type deferredOp struct {
	at  Time
	key uint64
	run func()
}

// delivery is one barrier-time At of fn at t on group g's engine.
type delivery struct {
	g  int32
	t  Time
	fn func()
}

// inlineSlots is how many heap entries a group record holds inline;
// most groups of a large world never hold more (phold-100k: 50K tokens
// over 100K groups). The append that outgrows them moves the heap to
// a fresh allocation.
const inlineSlots = 4

// group is one node group's record, exactly four 64-byte lines, so
// workers running adjacent groups share no line (Go puts a slab over
// 32 KB on a page boundary): its engine, the worker executing it in
// the current window (whose run takes its deferred ops), the count of
// ops it deferred in that window, and its first heap entries.
type group struct {
	eng      Engine
	worker   int32
	deferred int32
	heap     [inlineSlots]heapEnt
}

// opRun is one worker's part of a window: the deferred ops of the
// groups it executes and the lowest of those groups that went over
// DefaultMailboxCap, with its error. It fills one 64-byte line, so
// workers deferring at once share none.
type opRun struct {
	ops  []deferredOp
	errG int32
	err  error
	_    [16]byte
}

// CoupledEngine couples per-node-group sequential Engines under
// conservative windows. Construct with NewCoupled, spawn processes on
// the group engines (EngineOf), then Run exactly once.
type CoupledEngine struct {
	// groups is the slab of group records in group order, built once
	// by NewCoupled and never grown, so engine pointers stay valid.
	groups    []group
	groupOf   []int32
	lookahead Time
	workers   int

	counter []uint64 // per-rank deferred-op stream counters

	windows    uint64
	dispatches uint64 // total group-window dispatches (sum of active-set sizes)
	// busy is the run's summed busy time: the whole loop of an inline
	// (workers <= 1) run, measured once, or per pooled window the
	// coordinator's time and each joined helper's (Busy).
	busy time.Duration
	// Per-phase wall attribution of the window loop (PhaseWall):
	// group execution, barrier deferred-op application, and
	// min-tracker maintenance (bound computation + active-set
	// collection + horizon refresh).
	execWall    time.Duration
	barrierWall time.Duration
	scanWall    time.Duration

	tree   minTree // per-group NextAt horizons
	active []int32 // groups dispatched in the current window, ascending
	// next[i] is active group i's NextAt after the window (timeMax
	// when idle), written by whichever worker ran the group.
	next []Time

	// Barrier state. inBarrier is true only while the barrier executes
	// deferred ops; At uses it to buffer deliveries and Defer to refuse
	// the call. runs[w] holds the ops deferred by the groups worker w
	// ran, sorted by w via spare[w]; heads is the merge's cursor over
	// them; pend buffers the barrier's deliveries in call order. All
	// are reused across windows. deliveries counts barrier At calls.
	inBarrier  bool
	runs       []opRun
	spare      [][]deferredOp
	heads      [][]deferredOp
	pend       []delivery
	deliveries uint64

	// Window pool (workers > 1; see runPool). The task (w1, active,
	// opened) and the slots change only while the gate (open, inflight)
	// is closed and no helper is in flight.
	w1       Time
	opened   time.Time
	cursor   atomic.Int64
	open     atomic.Bool
	inflight atomic.Int32
	wake     []chan struct{} // per helper, 1-buffered
	slots    []poolSlot      // per worker
	pool     PoolStats
	poolHook func(w int) // test hook: runs as worker w enters a task

	started bool
}

// NewCoupled builds a coupled engine for ranks placed into node
// groups by groupOf (group ids must be dense, 0-based). lookahead is
// the minimum cross-group event delay (the fabric's minimum link
// latency) and must be positive when more than one group exists.
// workers caps how many groups execute concurrently inside one
// window; 1 (or less) runs windows inline on the caller's goroutine.
// The window and event structure is identical at every worker count.
func NewCoupled(groupOf []int, lookahead Time, workers int) (*CoupledEngine, error) {
	if len(groupOf) == 0 {
		return nil, errors.New("sim: coupled engine needs >= 1 rank")
	}
	if len(groupOf) >= maxRanks {
		return nil, fmt.Errorf("sim: coupled engine supports < %d ranks, got %d", maxRanks, len(groupOf))
	}
	groups := 0
	for _, g := range groupOf {
		if g < 0 {
			return nil, fmt.Errorf("sim: negative group id %d", g)
		}
		if g+1 > groups {
			groups = g + 1
		}
	}
	if lookahead <= 0 && groups > 1 {
		return nil, fmt.Errorf("sim: %d coupled groups need positive lookahead, got %v", groups, lookahead)
	}
	if workers < 1 {
		workers = 1
	}
	if workers > groups {
		workers = groups
	}
	ce := &CoupledEngine{
		groups:    make([]group, groups),
		groupOf:   make([]int32, len(groupOf)),
		lookahead: lookahead,
		workers:   workers,
		counter:   make([]uint64, len(groupOf)),
		runs:      make([]opRun, workers),
		spare:     make([][]deferredOp, workers),
	}
	// Each rank readies its group's engine (again, for a group's later
	// ranks: nothing is scheduled yet), so an engine left unready marks
	// a group without ranks.
	for r, g := range groupOf {
		ce.groupOf[r] = int32(g)
		gr := &ce.groups[g]
		gr.eng.init(gr.heap[:0])
	}
	for g := range ce.groups {
		if ce.groups[g].eng.horizon == 0 {
			return nil, fmt.Errorf("sim: coupled group ids must be dense, group %d has no ranks", g)
		}
	}
	return ce, nil
}

// Groups returns the node-group (sub-engine) count.
func (ce *CoupledEngine) Groups() int { return len(ce.groups) }

// Workers returns the window worker-parallelism (clamped to Groups).
func (ce *CoupledEngine) Workers() int { return ce.workers }

// Lookahead returns the conservative window bound.
func (ce *CoupledEngine) Lookahead() Time { return ce.lookahead }

// GroupOf returns the node group owning a rank.
func (ce *CoupledEngine) GroupOf(rank int) int { return int(ce.groupOf[rank]) }

// EngineOf returns the sequential engine owning a rank's events and
// processes. All of the rank's conds and spawns must bind to it.
func (ce *CoupledEngine) EngineOf(rank int) *Engine { return &ce.groups[ce.groupOf[rank]].eng }

// Sub returns the engine of node group g (group order is the digest
// fold order).
func (ce *CoupledEngine) Sub(g int) *Engine { return &ce.groups[g].eng }

// SetPerturbation installs schedule fuzzing on every group engine,
// giving group g decision stream g. Must be called before any process
// is spawned or event scheduled.
func (ce *CoupledEngine) SetPerturbation(p *Perturbation) {
	for g := range ce.groups {
		ce.groups[g].eng.setPerturbationStream(p, g)
	}
}

// Defer enqueues a cross-group operation on behalf of rank, to be
// applied at the current window's barrier. The op goes straight into
// the run of the worker executing the rank's group; a group may defer
// at most DefaultMailboxCap ops per window, and the ops past it are
// dropped and fail the run at the barrier. Ops are applied one at a
// time in (at, senderRank<<counterBits|senderCounter) order, giving
// shared-state mutations (link reservations, fault draws) one explicit
// serialization point whose order is invariant under the worker count.
// Defer may only be called from the rank's own engine context; a call
// from a deferred op panics.
//
// A deferred op is a leaf: it may reserve links, draw faults, call
// ce.At and read an engine's Now(), but must never defer and never
// schedule on a sub-engine directly (Engine.At, Spawn, Cond signals).
// The barrier runs one round, buffers its At calls and applies them
// after the round in call order, publishing their times to the window
// bound; a direct schedule would skip that. Work that must defer again
// belongs in an event the op schedules with At.
func (ce *CoupledEngine) Defer(rank int, at Time, run func()) {
	if ce.inBarrier {
		panic(fmt.Sprintf("sim: rank %d deferred an op from the window barrier; "+
			"deferred ops must not defer: schedule an event with At and defer from it", rank))
	}
	g := ce.groupOf[rank]
	gr := &ce.groups[g]
	c := ce.counter[rank]
	if c > counterMask {
		panic(fmt.Sprintf("sim: rank %d exhausted its %d-bit deferred-op counter", rank, counterBits))
	}
	ce.counter[rank] = c + 1
	rn := &ce.runs[gr.worker]
	if gr.deferred >= DefaultMailboxCap {
		if rn.err == nil || g < rn.errG {
			rn.errG = g
			rn.err = fmt.Errorf("sim: coupled mailbox group %d over capacity %d", g, DefaultMailboxCap)
		}
		return
	}
	gr.deferred++
	rn.ops = append(rn.ops, deferredOp{at: at, key: uint64(rank)<<counterBits | c, run: run})
}

// At schedules fn on rank's engine at absolute time t, clamping t
// into the engine's executed present when it lies in the past (under
// perturbation the receiving group may have run past a jittered t).
// The clamp target, the engine's Now, is fixed while the barrier runs
// (no group executes), so the result does not depend on the worker
// count. At is the cross-group scheduling primitive: call it from a
// deferred op, or from any context when the target shares the caller's
// group. From a deferred op the call is buffered and applied after the
// barrier's ops have run.
func (ce *CoupledEngine) At(rank int, t Time, fn func()) {
	g := ce.groupOf[rank]
	if !ce.inBarrier {
		ce.groups[g].eng.At(t, fn)
		return
	}
	// Applied after the barrier's ops (deliver), in call order.
	ce.pend = append(ce.pend, delivery{g: g, t: t, fn: fn})
}

// Elapsed returns the latest executed-event time across all groups
// (the coupled analogue of Engine.Now after Run).
func (ce *CoupledEngine) Elapsed() Time {
	var max Time
	for g := range ce.groups {
		if now := ce.groups[g].eng.Now(); now > max {
			max = now
		}
	}
	return max
}

// Executed returns the total number of dispatched events.
func (ce *CoupledEngine) Executed() uint64 { return ce.sum((*Engine).Executed) }

// Resumes returns the total number of switches into process bodies;
// like Executed, it does not depend on the worker count.
func (ce *CoupledEngine) Resumes() uint64 { return ce.sum((*Engine).Resumes) }

// sum folds a per-engine count over the groups in group order.
func (ce *CoupledEngine) sum(count func(*Engine) uint64) (n uint64) {
	for g := range ce.groups {
		n += count(&ce.groups[g].eng)
	}
	return n
}

// Windows returns how many conservative windows Run executed (1 for a
// one-group run, whose one window is unbounded).
func (ce *CoupledEngine) Windows() uint64 { return ce.windows }

// Dispatches returns the total number of group-window dispatches (the
// sum over windows of each window's active-group count). With G
// groups, Dispatches << Windows×G is the active-group filter working:
// idle groups are never touched. A one-group run reports 1.
func (ce *CoupledEngine) Dispatches() uint64 { return ce.dispatches }

// Deliveries returns how many events barrier ops scheduled with At;
// like Executed, it does not depend on the worker count.
func (ce *CoupledEngine) Deliveries() uint64 { return ce.deliveries }

// PhaseWall returns the wall-clock time the window loop spent in its
// three phases: executing group events (with each worker's sortRun),
// applying deferred ops at barriers (merging the workers' runs,
// running their ops and applying their deliveries), and
// maintaining the window bound (min-tracker reads, active-set
// collection, horizon refresh). The split is the
// engine-layer start of a Breaking-Band-style cost attribution; it is
// wall-clock metadata and never feeds back into simulated state.
func (ce *CoupledEngine) PhaseWall() (exec, barrier, scan time.Duration) {
	return ce.execWall, ce.barrierWall, ce.scanWall
}

// Digest folds every group engine's event-order digest in group order
// into one summary of the full execution. Group structure is
// topology-determined, so the digest is invariant under the worker
// count — the certificate the shard-determinism suite compares.
func (ce *CoupledEngine) Digest() uint64 {
	h := fnvOffsetBasis
	for g := range ce.groups {
		h = mixDigest(h, ce.groups[g].eng.Digest())
	}
	return h
}

// Busy returns the run's busy time: the whole loop of an inline run,
// measured once, or per pooled window the coordinator's time and each
// joined helper's. On a single-core runner it approaches the total
// wall time; on an N-core runner it approaches N times the wall time
// of the window execution.
func (ce *CoupledEngine) Busy() time.Duration { return ce.busy }

// BusyWall summarizes parallel efficiency for a run that took `wall`
// of wall-clock time: the run's busy time divided by wall. On
// an N-core runner an ideally scaling workload approaches N; on a
// single-core runner it approaches 1 from below, the gap being
// barrier and scheduling overhead.
func (ce *CoupledEngine) BusyWall(wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(ce.busy) / float64(wall)
}

// firstErr returns the error of the lowest group that went over
// DefaultMailboxCap, whichever worker ran it, or nil.
func (ce *CoupledEngine) firstErr() error {
	var err error
	g := int32(math.MaxInt32)
	for w := range ce.runs {
		if rn := &ce.runs[w]; rn.err != nil && rn.errG < g {
			g, err = rn.errG, rn.err
		}
	}
	return err
}

// Run drives the coupled simulation to completion: repeated
// conservative windows of (possibly parallel) group execution, each
// closed by a barrier applying the deferred cross-group ops one at a
// time in total order. It returns a DeadlockError if
// processes are still parked when every queue drains, or the first
// mailbox-capacity violation.
func (ce *CoupledEngine) Run() error {
	if ce.started {
		return errors.New("sim: CoupledEngine.Run called twice")
	}
	ce.started = true
	// Seed the horizon tree from the post-spawn queues; from here on
	// it is maintained incrementally (post-window refresh of dispatched
	// groups, barrier At publications).
	ce.tree.init(len(ce.groups))
	for g := range ce.groups {
		if at, ok := ce.groups[g].eng.NextAt(); ok {
			ce.tree.update(g, at)
		}
	}
	if ce.workers > 1 {
		ce.startPool()
		defer ce.stopPool()
	}
	// The phases are chained: each clock read ends one phase and
	// starts the next, four reads per window, so exec + barrier + scan
	// is the loop's wall time. Inline windows run on this goroutine
	// back to back, so that time is also an inline run's busy time
	// (per-group reads would cost more than the windows on short-event
	// workloads).
	start := time.Now()
	t0 := start
	defer func() {
		if ce.workers <= 1 {
			ce.busy = t0.Sub(start)
		}
	}()
	for {
		minNext := ce.tree.min()
		if minNext == timeMax {
			end := time.Now()
			ce.scanWall += end.Sub(t0)
			t0 = end
			return ce.finish()
		}
		// One group runs in one unbounded window (its lookahead may
		// be zero): nothing else can schedule onto it.
		w1 := timeMax
		if len(ce.groups) > 1 && minNext <= timeMax-ce.lookahead {
			w1 = minNext + ce.lookahead
		}
		ce.active = ce.tree.collect(w1, ce.active[:0])
		ce.windows++
		ce.dispatches += uint64(len(ce.active))
		t1 := time.Now()
		ce.scanWall += t1.Sub(t0)
		ce.window(w1)
		t2 := time.Now()
		ce.execWall += t2.Sub(t1)
		// Dispatched groups re-publish the horizons their workers
		// recorded; undisturbed groups keep their published value
		// (nothing else may touch a group's queue outside its own
		// window or the barrier).
		for i, g := range ce.active {
			ce.tree.update(int(g), ce.next[i])
		}
		t3 := time.Now()
		ce.scanWall += t3.Sub(t2)
		err := ce.applyDeferred()
		t0 = time.Now()
		ce.barrierWall += t0.Sub(t3)
		if err != nil {
			return err
		}
	}
}

// window executes one conservative window on every active group,
// inline with one worker, else as a pool task (runPool). A panic,
// re-raised on Run's goroutine, is the lowest panicking group's at
// every worker count, the one an inline run stops at.
func (ce *CoupledEngine) window(w1 Time) {
	ce.next = slices.Grow(ce.next[:0], len(ce.active))[:len(ce.active)]
	ce.w1 = w1
	if ce.workers <= 1 {
		for i := range ce.active {
			ce.runGroup(0, i)
		}
		ce.sortRun(0)
		return
	}
	ce.pool.Pooled++
	ce.runPool(ce.pool.Pooled == 1 || len(ce.active) >= wakeMin)
}

// runGroup executes active group i's window on worker w: the group's
// deferred ops go to w's run, and its post-window horizon to next[i].
func (ce *CoupledEngine) runGroup(w, i int) {
	gr := &ce.groups[ce.active[i]]
	gr.worker, gr.deferred = int32(w), 0
	gr.eng.RunBefore(ce.w1)
	at, ok := gr.eng.NextAt()
	if !ok {
		at = timeMax
	}
	ce.next[i] = at
}

// PoolStats counts a run's windows on the pool (workers > 1): opened
// to it, that woke the helpers, and that a helper joined, with every
// helper join and its summed delay. Pooled and Woken depend only on the
// run and its worker count; the rest on the host's timing.
type PoolStats struct {
	Pooled, Woken, Joined, Joins uint64
	JoinWait                     time.Duration
}

// Pool returns the run's pooled-window counts.
func (ce *CoupledEngine) Pool() PoolStats { return ce.pool }

// poolSlot is a worker's part of the current task: its lowest failing
// unit (the task's length if none) with the recovered panic, and, for
// a helper that joined, its join delay and busy time.
type poolSlot struct {
	fail       int
	panic      any
	joined     bool
	join, busy time.Duration
}

// claimsPerWorker is how many blocks of the active set each worker
// claims in an evenly loaded window; the block size follows from it,
// the active-set size and the worker count. At 8, a worker idles at
// most about one eighth of its share waiting for the last block, and a
// window of tens of thousands of active groups costs tens of cursor
// claims instead of one per group.
const claimsPerWorker = 8

// wakeMin is the fewest active groups for which a pooled window wakes
// the helpers; the first pooled window wakes them regardless, which
// starts them once per run. A count, not a clock: which windows wake
// is the same on every run and host. Active groups per window at two
// workers: the 10K stencil has 128 or more in 656 of its 729 windows,
// the 1K hashtable in 34 of its 2803 (2221 hold 64–127, which the
// coordinator runs faster alone), and phold-100k about 38K in each.
const wakeMin = 128

// runPool runs the window's active groups as a task, with Run's
// goroutine as worker 0, and re-raises the lowest failing group's
// panic.
//
// The gate: the coordinator publishes the task, sets open, wakes the
// helpers (non-blocking sends) if wake is set and claims blocks itself.
// When it stops claiming it clears open and yields while inflight is
// not zero. A helper enters inflight before it reads open, claims only
// if the task is open, and leaves inflight when done. Go's atomics are
// sequentially consistent: either the helper's entry precedes the
// close and the coordinator waits for it, or the helper reads the
// close and touches nothing. So no window waits for a helper that has
// not joined, and the atomics order the task before a helper's reads
// and its slot and run before the coordinator's.
//
// Claims are monotone and a worker runs its blocks in order up to its
// first failure, so the lowest failure recorded is the one an inline
// run stops at; what nobody claimed lies above the coordinator's.
func (ce *CoupledEngine) runPool(wake bool) {
	n := len(ce.active)
	for w := range ce.slots {
		ce.slots[w] = poolSlot{fail: n}
	}
	ce.cursor.Store(0)
	ce.opened = time.Now()
	ce.open.Store(true)
	for i := 0; wake && i < len(ce.wake); i++ {
		select {
		case ce.wake[i] <- struct{}{}:
		default:
		}
	}
	if ce.poolHook != nil {
		ce.poolHook(0)
	}
	ce.claim(0)
	ce.open.Store(false)
	for ce.inflight.Load() != 0 {
		runtime.Gosched()
	}
	busy, first, joined := time.Since(ce.opened), &ce.slots[0], false
	for w := 1; w < len(ce.slots); w++ {
		s := &ce.slots[w]
		if s.joined {
			joined, busy = true, busy+s.busy
			ce.pool.Joins++
			ce.pool.JoinWait += s.join
		}
		if s.fail < first.fail {
			first = s
		}
	}
	ce.busy += busy
	if wake {
		ce.pool.Woken++
	}
	if joined {
		ce.pool.Joined++
	}
	if first.panic != nil {
		panic(first.panic)
	}
}

// claim runs worker w's part of the open task: blocks of active groups
// from the cursor, in order, up to a panicking group it records in w's
// slot. A worker sorts only the run it filled.
func (ce *CoupledEngine) claim(w int) {
	s, n := &ce.slots[w], len(ce.active)
	block := int64(max(1, n/(claimsPerWorker*ce.workers)))
	defer func() {
		if r := recover(); r != nil {
			s.panic = r
		}
	}()
	for {
		lo := ce.cursor.Add(block) - block
		if lo >= int64(n) {
			s.fail = n
			ce.sortRun(w)
			return
		}
		for s.fail = int(lo); s.fail < int(min(lo+block, int64(n))); s.fail++ {
			ce.runGroup(w, s.fail)
		}
	}
}

// startPool launches the helpers, parked on their wake channels until
// stopPool (deferred from Run) closes them; the first window wakes them.
func (ce *CoupledEngine) startPool() {
	ce.slots = make([]poolSlot, ce.workers)
	ce.wake = make([]chan struct{}, ce.workers-1)
	for i := range ce.wake {
		ce.wake[i] = make(chan struct{}, 1)
		go ce.helper(i+1, ce.wake[i])
	}
}

func (ce *CoupledEngine) stopPool() {
	for _, ch := range ce.wake {
		close(ch)
	}
}

// helper is worker w: on each wake it joins the task if it is still
// open (see runPool) and claims blocks until none remain.
func (ce *CoupledEngine) helper(w int, wake chan struct{}) {
	for range wake {
		if ce.poolHook != nil {
			ce.poolHook(w)
		}
		ce.inflight.Add(1)
		if ce.open.Load() {
			t0 := time.Now()
			s := &ce.slots[w]
			s.joined, s.join = true, t0.Sub(ce.opened)
			ce.claim(w)
			s.busy = time.Since(t0)
		}
		ce.inflight.Add(-1)
	}
}

// deliver applies the barrier's buffered deliveries in one serial
// pass, each engine seeing its At calls in call order, and publishes
// each event's own time (the clamp or perturbation jitter may move it),
// so a delivery that re-awakens a group (or moves its next event
// earlier) shows in the next window's bound without a group scan.
// Window-time At calls target the caller's group, which re-publishes
// wholesale after the window. The buffer stays: calling At straight
// from the ops, between merge steps, took 29% more wall time on
// phold-100k (2-vCPU host).
func (ce *CoupledEngine) deliver() {
	ce.deliveries += uint64(len(ce.pend))
	for _, d := range ce.pend {
		if t := ce.groups[d.g].eng.At(d.t, d.fn); t < ce.tree.get(int(d.g)) {
			ce.tree.update(int(d.g), t)
		}
	}
	ce.pend = ce.pend[:0]
}

// cmpOps orders deferred ops by (at, key). Keys embed each sender's
// monotone counter, so pairs are unique. sortRun's radix path is
// stable instead and relies on a rank's ops entering in counter order.
func cmpOps(a, b deferredOp) int {
	switch {
	case a.at != b.at:
		if a.at < b.at {
			return -1
		}
		return 1
	case a.key < b.key:
		return -1
	case a.key > b.key:
		return 1
	}
	return 0
}

// Runs of radixMin ops or more take sortRun's radix path, with digits
// of at most radixBits (2048 counts, in L1). Per op on a 2-vCPU KVM
// host it matches the comparison sort near 100 ops of single-rank groups
// and 256 of interleaved ranks, and is 2-4x faster at 1024, 5-7x at 19000.
const radixMin, radixBits = 256, 11

// sortRun orders worker w's run by (at, key): a rank's ops enter it in
// counter order, so a stable LSD radix sort on (at-atMin)<<rb | rank-rMin
// (rb = 0 for a run in rank order) suffices. The sorted ops end in the
// run or in spare[w], swapped, so warm windows allocate nothing.
func (ce *CoupledEngine) sortRun(w int) {
	ops := ce.runs[w].ops
	if len(ops) < radixMin {
		slices.SortFunc(ops, cmpOps)
		return
	}
	rMin, atMin := ops[0].key>>counterBits, ops[0].at
	rMax, atMax, byRank := rMin, atMin, true
	for i := 1; i < len(ops); i++ {
		r, at := ops[i].key>>counterBits, ops[i].at
		byRank = byRank && r >= ops[i-1].key>>counterBits
		rMin, rMax, atMin, atMax = min(rMin, r), max(rMax, r), min(atMin, at), max(atMax, at)
	}
	if byRank {
		rMax = rMin
	}
	rb := bits.Len64(rMax - rMin)
	n := rb + bits.Len64(uint64(atMax)-uint64(atMin))
	if n > 64 {
		slices.SortFunc(ops, cmpOps)
		return
	}
	// About len/4 buckets, in the fewest passes of equal width.
	width := min(radixBits, bits.Len(uint(len(ops)))-2)
	passes := max(1, (n+width-1)/width)
	width = (n + passes - 1) / passes
	atLo, rLo, rMask := uint64(atMin), rMin, uint64(1)<<rb-1 // captured by value
	key := func(op *deferredOp) uint64 {
		return (uint64(op.at)-atLo)<<rb | (op.key>>counterBits-rLo)&rMask
	}
	var counts [1 << radixBits]int32
	c, mask := counts[:1<<width], uint64(1)<<width-1
	src, dst := ops, slices.Grow(ce.spare[w][:0], len(ops))[:len(ops)]
	for shift := 0; shift < n; shift += width {
		clear(c)
		for i := range src {
			c[key(&src[i])>>shift&mask]++
		}
		for d := 1; d < len(c); d++ {
			c[d] += c[d-1]
		}
		for i := len(src) - 1; i >= 0; i-- { // from the back: stable
			d := key(&src[i]) >> shift & mask
			c[d]--
			dst[c[d]] = src[i]
		}
		src, dst = dst, src
	}
	ce.runs[w].ops, ce.spare[w] = src, dst
}

// applyDeferred is the window barrier, one round: it merges the
// workers' sorted runs, applies their ops in (at, key) order and then
// their deliveries. Ops cannot defer (Defer panics here), so every run
// is empty afterwards. The runs and the delivery buffer persist
// across windows, so the steady-state barrier allocates nothing.
func (ce *CoupledEngine) applyDeferred() error {
	ce.inBarrier = true
	ce.mergeRuns()
	ce.inBarrier = false
	ce.deliver()
	return ce.firstErr()
}

// mergeRuns runs the ops of the sorted runs in (at, key) order and
// empties the runs. Ops cannot defer, so the runs hold still.
func (ce *CoupledEngine) mergeRuns() {
	heads := ce.heads[:0]
	for w := range ce.runs {
		heads = append(heads, ce.runs[w].ops)
	}
	for {
		m := -1
		for h, r := range heads {
			if len(r) > 0 && (m < 0 || cmpOps(r[0], heads[m][0]) < 0) {
				m = h
			}
		}
		if m < 0 {
			break
		}
		op := heads[m][0]
		heads[m] = heads[m][1:]
		op.run()
	}
	ce.heads = heads
	for w := range ce.runs {
		ce.runs[w].ops = ce.runs[w].ops[:0]
	}
}

// finish handles run termination: clean completion, a first recorded
// group error, or an aggregated deadlock report across all groups.
func (ce *CoupledEngine) finish() error {
	if err := ce.firstErr(); err != nil {
		return err
	}
	var parked []string
	for g := range ce.groups {
		parked = ce.groups[g].eng.parkedNames(parked)
	}
	if len(parked) > 0 {
		sort.Strings(parked)
		return &DeadlockError{Time: ce.Elapsed(), Parked: parked}
	}
	return nil
}
