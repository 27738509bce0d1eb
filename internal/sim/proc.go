package sim

// Proc is a simulated process: a goroutine that runs only when the
// engine hands it the turn, and parks whenever it waits for simulated
// time to pass or for a condition to be signaled. At most one Proc (or
// the engine loop) executes at any wall-clock instant, so simulated
// code needs no locking and every run is deterministic.
type Proc struct {
	eng    *Engine
	name   string
	resume chan struct{}
	done   bool

	// intrusive membership in the engine's cond-parked list
	isParked               bool
	parkedNext, parkedPrev *Proc
}

// Spawn creates a simulated process running fn. The process starts at
// the current simulated time (after already-queued events at that
// time). Spawn may be called from the engine's context (inside events
// or other processes) or before Run.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, resume: make(chan struct{})}
	if e.turn == nil { // process-free engines never pay for the channel
		e.turn = make(chan struct{})
	}
	e.live++
	go func() {
		<-p.resume // wait for the first turn
		fn(p)
		p.done = true
		e.live--
		// Final yield: hand the turn straight to the next wakeup when
		// possible, otherwise back to the engine loop.
		if q := e.handoffTarget(); q != nil {
			q.resume <- struct{}{}
		} else {
			e.turn <- struct{}{}
		}
	}()
	e.scheduleWake(0, p)
	return p
}

// dispatch hands the turn to p and blocks until p parks or finishes.
// It must be called from the engine loop (inside an event callback).
func (e *Engine) dispatch(p *Proc) {
	if p.done {
		return
	}
	p.resume <- struct{}{}
	<-e.turn
}

// park yields the turn and blocks until dispatched again. The caller
// must have arranged a wakeup (a scheduled event or a condition
// registration) or the run will end in a deadlock report.
//
// Fast paths: when the globally next event is a pre-bound wakeup, the
// parking process dispatches it directly — consuming its own wakeup
// without any channel operation (Sleep with nothing else pending), or
// handing the turn to the woken process in a single channel handshake
// instead of routing through the engine goroutine.
func (p *Proc) park() {
	e := p.eng
	if q := e.handoffTarget(); q != nil {
		if q == p {
			return // consumed our own wakeup; keep running
		}
		q.resume <- struct{}{}
	} else {
		e.turn <- struct{}{}
	}
	<-p.resume
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
// is a pre-bound pooled event: no closure, no allocation.
func (p *Proc) Sleep(d Time) {
	p.eng.scheduleWake(d, p)
	p.park()
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
	if p.eng != c.eng {
		panic("sim: Cond.Wait with process from a different engine")
	}
	c.waiters = append(c.waiters, p)
	c.eng.addParked(p)
	p.park()
}

// Signal wakes the longest-waiting process, if any. The wakeup is a
// pre-bound pooled event at the current time: no closure, no
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
