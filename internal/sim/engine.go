package sim

import (
	"fmt"
	"math"
	"sort"
)

// heapEnt is one pending event of the time-ordered queue. The event
// lives in its entry: the ordering key (at, seq) sift comparisons read
// and either a callback (fn) or a pre-bound process wakeup (wake).
// Wakeups carry no closure, so the Sleep/Signal hot path allocates
// nothing, and the slice layout avoids the interface boxing of
// container/heap's Push/Pop.
type heapEnt struct {
	at   Time
	seq  uint64
	fn   func()
	wake *Proc
}

func heapLess(a, b *heapEnt) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// nowEnt is one entry of the same-timestamp FIFO ring. All queued
// entries are scheduled for the current time, so the time is not
// kept: only seq (for ordering against equal-time heap entries) and
// the event.
type nowEnt struct {
	seq  uint64
	fn   func()
	wake *Proc
}

// Engine is a sequential discrete-event simulator. It is not safe for
// concurrent use: its processes are coroutines that run on the
// goroutine driving Run, so only one simulated process (or the engine
// itself) runs at any moment.
//
// Internally the pending-event set is split in two: a FIFO "now queue"
// ring buffer for events at the current timestamp (the dominant class:
// Sleep(0), Signal/Broadcast wakeups, Spawn starts and eager-protocol
// deliveries all schedule at delay zero) and an inlined 4-ary min-heap
// keyed on (at, seq) for future events. Each event lives in its queue
// entry, and a pop clears the entry it vacates. See DESIGN.md §7 for
// the invariants.
type Engine struct {
	now      Time
	seq      uint64
	executed uint64
	digest   uint64 // order-sensitive fold of dispatched (at, key) pairs
	horizon  Time   // last dispatchable time during RunBefore; ownWakeup must not pass it

	heap []heapEnt // 4-ary min-heap of future events

	nowq    []nowEnt // ring buffer of events at the current time
	nowHead int32
	nowLen  int32

	parkedHead *Proc  // intrusive list of cond-parked procs (deadlock reporting)
	resumes    uint64 // switches into process bodies (step's p.next calls)

	// perturb, when non-nil, enables the schedule-fuzzing mode of
	// perturb.go: every scheduled event draws (or replays) one decision
	// that may jitter the firing time and randomize the ordering key.
	// It is kept out of line so unperturbed engines stay small.
	perturb *perturbState
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	e := new(Engine)
	e.init(nil)
	return e
}

// init readies a zero Engine at time zero, its heap starting as the
// given empty slice: nil for NewEngine, a view of a group record's
// inline entries for NewCoupled. Past its capacity, append moves it to
// a fresh allocation.
func (e *Engine) init(heap []heapEnt) {
	e.horizon, e.digest = math.MaxInt64, fnvOffsetBasis
	e.heap = heap
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events dispatched so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Resumes returns how many wakeups switched into a process body; own
// wakeups taken inline and Await steps switch into none.
func (e *Engine) Resumes() uint64 { return e.resumes }

// Digest returns the order-sensitive fingerprint of the events
// dispatched so far: each event's (firing time, ordering key) pair is
// folded into an FNV-style hash in dispatch order. Two runs with
// identical schedules produce equal digests; any reordering, jitter,
// or divergent event set changes the value. CoupledEngine.Digest folds
// the per-group digests, and the shard-determinism suite compares them
// to prove engine schedules are invariant under the worker count.
func (e *Engine) Digest() uint64 { return e.digest }

// fnvOffsetBasis seeds every event-order digest (FNV-1a offset basis).
const fnvOffsetBasis uint64 = 1469598103934665603

// mixDigest folds one word into an order-sensitive digest (FNV-style:
// xor then multiply by the 64-bit FNV prime).
func mixDigest(h, v uint64) uint64 { return (h ^ v) * 1099511628211 }

// stamp draws the firing time and ordering key of the next scheduled
// event: the time as given, the key the next sequence number. In
// perturbation mode the key's high bits come from the event's decision
// (decision k for the k-th scheduled event, randomizing same-timestamp
// order) and the firing time absorbs the decision's jitter.
func (e *Engine) stamp(at Time) (Time, uint64) {
	idx := e.seq
	e.seq++
	if e.perturb == nil {
		return at, idx
	}
	if idx > 1<<32-1 {
		panic("sim: perturbation mode supports at most 2^32 events per run")
	}
	d := e.perturbDecision(idx)
	return at + d.Jitter, uint64(d.Prio)<<32 | idx
}

// schedule stamps an event (a callback fn or a wakeup of wake) and
// queues it on the now queue (at == now) or the heap (at > now),
// returning its firing time. Callers clamp at to >= e.now first. In
// perturbation mode everything goes through the heap: the now-queue
// ring is FIFO by construction, which is exactly the ordering the
// fuzzer must be free to break.
func (e *Engine) schedule(at Time, fn func(), wake *Proc) Time {
	at, seq := e.stamp(at)
	if at <= e.now && e.perturb == nil {
		e.nowPush(nowEnt{seq: seq, fn: fn, wake: wake})
	} else {
		e.heapPush(heapEnt{at: at, seq: seq, fn: fn, wake: wake})
	}
	return at
}

// At registers fn to run at absolute time t (clamped to now) and
// returns the time it will fire (perturbation jitter may move it past
// t). Events with equal timestamps fire in the order they were
// registered (FIFO), which keeps runs deterministic.
func (e *Engine) At(t Time, fn func()) Time {
	if t < e.now {
		t = e.now
	}
	return e.schedule(t, fn, nil)
}

// scheduleWake registers a pre-bound wakeup of p after delay: the
// queue entry carries only the *Proc, so the call allocates nothing.
func (e *Engine) scheduleWake(delay Time, p *Proc) {
	if delay < 0 {
		delay = 0
	}
	e.schedule(e.now+delay, nil, p)
}

// --- now-queue ring buffer ---

func (e *Engine) nowPush(ent nowEnt) {
	if int(e.nowLen) == len(e.nowq) {
		e.nowGrow()
	}
	e.nowq[int(e.nowHead+e.nowLen)&(len(e.nowq)-1)] = ent
	e.nowLen++
}

func (e *Engine) nowGrow() {
	if len(e.nowq) == 0 {
		e.nowq = make([]nowEnt, 64)
		return
	}
	grown := make([]nowEnt, 2*len(e.nowq))
	for i := 0; i < int(e.nowLen); i++ {
		grown[i] = e.nowq[(int(e.nowHead)+i)&(len(e.nowq)-1)]
	}
	e.nowq = grown
	e.nowHead = 0
}

// nowPop removes the ring's head, clearing its entry, and returns it
// as a heap entry at the current time.
func (e *Engine) nowPop() heapEnt {
	q := &e.nowq[e.nowHead]
	ent := heapEnt{at: e.now, seq: q.seq, fn: q.fn, wake: q.wake}
	*q = nowEnt{}
	e.nowHead = (e.nowHead + 1) & int32(len(e.nowq)-1)
	e.nowLen--
	return ent
}

// --- 4-ary min-heap ---

// heapPush and heapPop sift a hole rather than swapping: an entry is
// 32 bytes, so each level moves one entry instead of two, and the
// sifted entry is written once, where it comes to rest.
func (e *Engine) heapPush(ent heapEnt) {
	h := append(e.heap, ent)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !heapLess(&ent, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ent
	e.heap = h
}

// heapPop removes the minimum and clears the entry the shrink vacates.
func (e *Engine) heapPop() heapEnt {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = heapEnt{}
	h = h[:n]
	e.heap = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if heapLess(&h[j], &h[m]) {
				m = j
			}
		}
		if !heapLess(&h[m], &last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
	return top
}

// --- dispatch core ---

// peekMin returns the time and wakeup (nil for a callback) of the
// earliest pending event without removing it. Clock invariant: every
// now-queue entry is scheduled for exactly e.now (the clock only
// advances when the now queue is empty), and every heap entry has
// at >= e.now, so the now queue wins unless the heap holds an
// equal-time entry with an earlier sequence number.
func (e *Engine) peekMin() (Time, *Proc, bool) {
	if e.nowLen > 0 {
		q := &e.nowq[e.nowHead]
		if len(e.heap) > 0 {
			if h := &e.heap[0]; h.at == e.now && h.seq < q.seq {
				return h.at, h.wake, true
			}
		}
		return e.now, q.wake, true
	}
	if len(e.heap) > 0 {
		return e.heap[0].at, e.heap[0].wake, true
	}
	return 0, nil, false
}

// popMin removes and returns the earliest pending event; the queue
// must not be empty.
func (e *Engine) popMin() heapEnt {
	if e.nowLen > 0 {
		if len(e.heap) > 0 {
			if h := &e.heap[0]; h.at == e.now && h.seq < e.nowq[e.nowHead].seq {
				return e.heapPop()
			}
		}
		return e.nowPop()
	}
	return e.heapPop()
}

// take pops the earliest pending event and accounts for it: the clock
// moves to its time, and its (at, seq) pair joins the digest.
func (e *Engine) take() heapEnt {
	ent := e.popMin()
	if ent.at > e.now {
		e.now = ent.at
	}
	e.executed++
	e.digest = mixDigest(mixDigest(e.digest, uint64(ent.at)), ent.seq)
	return ent
}

// step dispatches the next event. It reports false when the queue is
// empty. A wakeup runs the step of the Await its process is parked in,
// if any, and unless that reports false, the body until it parks or
// returns; a panic in either is re-raised here. A finished process's
// stale wakeup is a no-op.
func (e *Engine) step() bool {
	if e.nowLen == 0 && len(e.heap) == 0 {
		return false
	}
	if ent := e.take(); ent.wake == nil {
		ent.fn()
	} else if p := ent.wake; p.step == nil || p.step() {
		e.resumes++
		p.next()
	}
	return true
}

// ownWakeup pops the globally next event when it is p's own wakeup
// and reports whether it did, so a parking process that the engine
// would dispatch next keeps running without a switch. It declines when
// the wakeup lies beyond a running RunBefore bound; the engine loop
// then takes over.
func (e *Engine) ownWakeup(p *Proc) bool {
	at, wake, ok := e.peekMin()
	if !ok || at > e.horizon || wake != p {
		return false
	}
	e.take()
	return true
}

// Run dispatches events until none remain. It returns a DeadlockError
// if simulated processes are still parked when the queue drains.
func (e *Engine) Run() error {
	e.horizon = math.MaxInt64
	for e.step() {
	}
	if e.parkedHead != nil {
		return e.deadlock()
	}
	return nil
}

// NextAt returns the timestamp of the earliest pending event and
// whether one exists. It does not advance the clock.
func (e *Engine) NextAt() (Time, bool) {
	at, _, ok := e.peekMin()
	return at, ok
}

// RunBefore dispatches every event with timestamp strictly less than
// t. It never advances the clock idly: Now() stays at the last
// dispatched event, so Elapsed-style readings reflect real activity.
// Parked processes are not treated as a deadlock (they may be waiting
// on stimuli another engine will deliver at the next window barrier).
// It is the per-window execution step of the coupled engine
// (coupled.go).
func (e *Engine) RunBefore(t Time) {
	e.horizon = t - 1
	for {
		// Inlined peekMin bound check: a non-empty now queue holds
		// the minimum, since every heap entry is at or after now.
		var at Time
		if e.nowLen > 0 {
			at = e.now
		} else if len(e.heap) > 0 {
			at = e.heap[0].at
		} else {
			break
		}
		if at >= t {
			break
		}
		e.step()
	}
	e.horizon = math.MaxInt64
}

// parkedNames appends the names of every cond-parked process to dst
// (used by the coupled engine to aggregate deadlock reports).
func (e *Engine) parkedNames(dst []string) []string {
	for p := e.parkedHead; p != nil; p = p.parkedNext {
		dst = append(dst, p.name)
	}
	return dst
}

// DeadlockError reports simulated processes that can never resume: the
// event queue drained while they were parked on conditions.
type DeadlockError struct {
	Time   Time
	Parked []string // process names, sorted
}

// deadlockNames is how many parked process names Error prints; the
// rest are counted, so a deadlocked 10K-rank world stays one short line.
const deadlockNames = 8

func (d *DeadlockError) Error() string {
	names := d.Parked
	more := ""
	if len(names) > deadlockNames {
		names = names[:deadlockNames]
		more = fmt.Sprintf(" and %d more", len(d.Parked)-deadlockNames)
	}
	return fmt.Sprintf("sim: deadlock at t=%v: %d process(es) parked forever: %v%s",
		d.Time, len(d.Parked), names, more)
}

func (e *Engine) deadlock() error {
	names := e.parkedNames(nil)
	sort.Strings(names)
	return &DeadlockError{Time: e.now, Parked: names}
}

// addParked links p into the cond-parked list (deadlock accounting).
func (e *Engine) addParked(p *Proc) {
	p.isParked = true
	p.parkedNext = e.parkedHead
	if e.parkedHead != nil {
		e.parkedHead.parkedPrev = p
	}
	e.parkedHead = p
}

// removeParked unlinks p; a no-op if p is not in the list.
func (e *Engine) removeParked(p *Proc) {
	if !p.isParked {
		return
	}
	p.isParked = false
	if p.parkedPrev != nil {
		p.parkedPrev.parkedNext = p.parkedNext
	} else {
		e.parkedHead = p.parkedNext
	}
	if p.parkedNext != nil {
		p.parkedNext.parkedPrev = p.parkedPrev
	}
	p.parkedPrev, p.parkedNext = nil, nil
}
