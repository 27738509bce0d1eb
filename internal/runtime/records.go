package runtime

import (
	"msgroofline/internal/machine"
	"msgroofline/internal/sim"
)

// Message-path records (DESIGN.md §9). Each pooled record binds its
// methods once, when it is first made (l.fire = l.apply), and hands
// those bound func values to the unchanged CoupledEngine.Defer and At,
// so a warm endpoint's message path allocates nothing.
//
// Ownership: a free list is touched only by its owner's group engine
// or by the serial window barrier (mergeRuns), never by the barrier's
// delivery workers, which only schedule the bound values. Each record
// returns to its list on a goroutine that owns that list:
//
//   - a flight is taken from the sender's list in the sender's window
//     and run and returned by the barrier;
//   - a landing is taken from the list of the endpoint whose engine
//     runs it and returns itself there when it fires;
//   - a putRec (put.go) is taken by its origin and reused, on the
//     origin's engine, once it has landed;
//   - an atomicTxn is taken and returned by its origin's process.

// flight is one cross-group Inject awaiting the window barrier.
type flight struct {
	src   *Endpoint
	tp    machine.TransportParams
	start sim.Time
	dst   int
	bytes int64
	ch    int

	remote, local func(at sim.Time)
	run           func() // f.apply, bound once
	next          *flight
}

// flight takes a flight record from the endpoint's free list.
func (ep *Endpoint) flight() *flight {
	f := ep.flights
	if f == nil {
		f = &flight{src: ep}
		f.run = f.apply
		return f
	}
	ep.flights = f.next
	return f
}

// apply runs at the window barrier: it times the wire journey
// (reserving links in deferred-op order) and schedules the delivery on
// dst's engine and, when the sender asked for one, its completion on
// the sender's. The delivery event is scheduled even without a remote
// callback: it is part of the event order the digests certify.
func (f *flight) apply() {
	src := f.src
	w := src.world
	deliver := src.wireTime(f.tp, f.start, f.dst, f.bytes, f.ch)
	w.eng.At(f.dst, deliver, w.eps[f.dst].landing(deliver, f.remote, nil).fire)
	if f.local != nil {
		w.eng.At(src.rank, deliver, src.landing(deliver, nil, f.local).fire)
	}
	f.remote, f.local = nil, nil
	f.next, src.flights = src.flights, f
}

// landing is one delivery event: remote then local at time at, on the
// engine of the endpoint that owns the record.
type landing struct {
	ep            *Endpoint
	at            sim.Time
	remote, local func(at sim.Time)
	fire          func() // l.apply, bound once
	next          *landing
}

// landing takes a landing record from the endpoint's free list. The
// caller schedules its fire on this endpoint's engine.
func (ep *Endpoint) landing(at sim.Time, remote, local func(sim.Time)) *landing {
	l := ep.landings
	if l == nil {
		l = &landing{ep: ep}
		l.fire = l.apply
	} else {
		ep.landings = l.next
	}
	l.at, l.remote, l.local = at, remote, local
	return l
}

// apply returns the record to its list before running the callbacks,
// so a callback that injects again can reuse it.
func (l *landing) apply() {
	at, remote, local := l.at, l.remote, l.local
	l.remote, l.local = nil, nil
	l.next, l.ep.landings = l.ep.landings, l
	if remote != nil {
		remote(at)
	}
	if local != nil {
		local(at)
	}
}

// atomicTxn is one RemoteAtomic on the word at off in dst's mem. Its
// stages run in order: request (barrier, cross-group only), service
// and serve (dst's engine: arbitrate the memory unit, then update the
// word at the service instant), respond (the barrier cross-group,
// inline otherwise) and fire (the origin's engine: wake the caller).
type atomicTxn struct {
	ep               *Endpoint // origin
	tp               machine.TransportParams
	dst              int
	mem              *Mem
	off              int
	cas              bool
	compare, operand uint64

	req, arrive, svcEnd sim.Time
	result              uint64
	fired               bool
	done                *sim.Cond // on the origin's engine

	request, service, serve, respond, fire func()
	isFired                                func() bool
	next                                   *atomicTxn
}

// atomicTxn takes a transaction record from the endpoint's free list.
func (ep *Endpoint) atomicTxn() *atomicTxn {
	t := ep.txns
	if t == nil {
		t = &atomicTxn{ep: ep, done: sim.NewCond(ep.eng())}
		t.request, t.service, t.serve = t.runRequest, t.runService, t.runServe
		t.respond, t.fire, t.isFired = t.runRespond, t.runFire, t.hasFired
		return t
	}
	ep.txns = t.next
	return t
}

// runRequest (barrier): the request flight reserves links in total
// order and lands on dst's engine.
func (t *atomicTxn) runRequest() {
	t.arrive = t.ep.atomicFlight(t.tp, t.ep.rank, t.dst, t.req)
	t.ep.world.eng.At(t.dst, t.arrive, t.service)
}

// runService (dst's engine): arbitrate the memory unit and schedule
// the update at the service instant.
func (t *atomicTxn) runService() {
	w := t.ep.world
	target := w.eps[t.dst]
	svcStart := t.arrive
	if target.atomicFree > svcStart {
		svcStart = target.atomicFree
	}
	t.svcEnd = svcStart + t.tp.AtomicTime
	target.atomicFree = t.svcEnd
	w.eng.At(t.dst, t.svcEnd, t.serve)
}

// runServe (dst's engine): read and update the word, then launch the
// response. A cross-group response reserves links too, so it is
// deferred from the service event to the next barrier.
func (t *atomicTxn) runServe() {
	old := t.mem.Load(t.off)
	switch {
	case !t.cas:
		t.mem.Store(t.off, old+t.operand)
	case old == t.compare:
		t.mem.Store(t.off, t.operand)
	}
	t.result = old
	w := t.ep.world
	if t.ep.node == w.eps[t.dst].node {
		t.runRespond()
		return
	}
	w.eng.Defer(t.dst, t.svcEnd, t.respond)
}

// runRespond times the response flight and schedules the caller's
// wakeup on the origin's engine.
func (t *atomicTxn) runRespond() {
	respond := t.ep.atomicFlight(t.tp, t.dst, t.ep.rank, t.svcEnd)
	t.ep.world.eng.At(t.ep.rank, respond, t.fire)
}

func (t *atomicTxn) runFire() {
	t.fired = true
	t.done.Broadcast()
}

func (t *atomicTxn) hasFired() bool { return t.fired }
