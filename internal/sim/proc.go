//go:build go1.23

// iter.Pull needs Go 1.23; this constraint raises the file's language version past go.mod's.

package sim

import "iter"

// Proc is a simulated process: a coroutine that runs only when the
// engine dispatches its wakeup, and parks whenever it waits for
// simulated time to pass or for a condition to be signaled. At most
// one Proc (or the engine loop) of an engine executes at any instant,
// so simulated code needs no locking and every run is deterministic.
type Proc struct {
	eng   *Engine
	name  string
	next  func() (struct{}, bool) // resumes the body until it parks or returns
	yield func(struct{}) bool     // suspends the body back into next
	step  func() bool             // the step of the Await p is parked in, or nil

	// intrusive membership in the engine's cond-parked list
	isParked               bool
	parkedNext, parkedPrev *Proc
}

// Spawn creates a simulated process running fn. The process starts at
// the current simulated time (after already-queued events at that
// time). Spawn may be called from the engine's context (inside events
// or other processes) or before Run.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		fn(p)
	})
	e.scheduleWake(0, p)
	return p
}

// park suspends p until its next wakeup is dispatched. The caller has
// arranged that wakeup (a scheduled event or a condition registration),
// or the run ends in a deadlock report. When the globally next event is
// p's own wakeup, park consumes it inline and p keeps running.
func (p *Proc) park() {
	if !p.eng.ownWakeup(p) {
		p.yield(struct{}{})
	}
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Sleep advances this process's local view of time by d: it parks and
// resumes once the simulated clock has advanced past d. Sleep(0) yields
// the turn (other events at the same timestamp run first). The wakeup
// is a pre-bound queue entry: no closure, no allocation.
func (p *Proc) Sleep(d Time) {
	p.WakeAfter(d)
	p.park()
}

// WakeAfter is Sleep without the park: p's next wakeup, d from now.
func (p *Proc) WakeAfter(d Time) { p.eng.scheduleWake(d, p) }

// Await runs a wait as wakeups, not in p's coroutine. The caller has
// arranged p's next wakeup (WakeAfter or Cond.Enlist). Await parks p
// once; each wakeup runs step in the event that dispatches it, with no
// switch into the body. A step that reports false has arranged the
// next wakeup; true resumes the body in that event, where a blocking
// Sleep or WaitFor would return. Its schedule calls are the blocking
// code's, so the events are too (DESIGN.md §7). Like park, Await takes
// p's own wakeups inline while they are the engine's next event.
func (p *Proc) Await(step func() bool) {
	for p.eng.ownWakeup(p) {
		if step() {
			return
		}
	}
	p.step = step
	p.yield(struct{}{})
	p.step = nil
}

// Cond is a condition variable for simulated processes. Waiters park;
// Signal and Broadcast schedule wakeups at the current simulated time.
// All operations must happen inside the engine's context.
//
// The waiter queue is a plain FIFO (Signal wakes the longest-waiting
// process — this ordering is a determinism invariant): waiters append
// at the back, pops advance head, and the drained front is compacted
// away so the queue stays O(waiting) even when it never fully empties.
type Cond struct {
	eng     *Engine
	waiters []*Proc
	head    int // index of the longest-waiting entry in waiters
}

// NewCond returns a condition variable bound to e.
func NewCond(e *Engine) *Cond { return &Cond{eng: e} }

// popFront returns the longest-waiting process, or nil.
func (c *Cond) popFront() *Proc {
	if c.head == len(c.waiters) {
		return nil
	}
	p := c.waiters[c.head]
	c.waiters[c.head] = nil
	c.head++
	if c.head == len(c.waiters) {
		c.head = 0
		c.waiters = c.waiters[:0]
	} else if c.head > 32 && c.head*2 >= len(c.waiters) {
		c.waiters = c.waiters[:copy(c.waiters, c.waiters[c.head:])]
		c.head = 0
	}
	return p
}

// Wait parks p until the condition is signaled. As with sync.Cond, the
// awakened process must re-check its predicate.
func (c *Cond) Wait(p *Proc) {
	c.Enlist(p)
	p.park()
}

// Enlist is Wait without the park: it queues p as a waiter.
func (c *Cond) Enlist(p *Proc) {
	if p.eng != c.eng {
		panic("sim: Cond waiter from a different engine")
	}
	c.waiters = append(c.waiters, p)
	c.eng.addParked(p)
}

// Signal wakes the longest-waiting process, if any. The wakeup is a
// pre-bound queue entry at the current time: no closure, no
// allocation.
func (c *Cond) Signal() {
	p := c.popFront()
	if p == nil {
		return
	}
	c.eng.removeParked(p)
	c.eng.scheduleWake(0, p)
}

// Broadcast wakes every waiting process, in FIFO order.
func (c *Cond) Broadcast() {
	for {
		p := c.popFront()
		if p == nil {
			return
		}
		c.eng.removeParked(p)
		c.eng.scheduleWake(0, p)
	}
}

// WaitFor blocks p until pred() is true, re-checking each time c is
// signaled. pred must be cheap and side-effect free.
func (c *Cond) WaitFor(p *Proc, pred func() bool) {
	for !pred() {
		c.Wait(p)
	}
}
