// Package simbench holds the canonical engine hot-path workloads used
// by the engine microbenchmarks, the phold-100k benchmark workload,
// and the CI bench smoke job. Keeping them in one place guarantees
// that "before" and "after" measurements of an engine change exercise
// byte-for-byte the same simulated work.
//
// Every workload is deterministic, uses only the public sim API, and
// returns the engine so callers can read Executed() and convert
// wall-clock cost into ns/event.
package simbench

import "msgroofline/internal/sim"

// PingPong is the steady-state Sleep/Signal workload: two processes
// hand a condition-variable token back and forth n times. Each round
// trip is two Signal wakeups plus two parks — the engine's dominant
// pattern under eager-protocol traffic. This is the workload the
// zero-allocation acceptance gate is measured on.
func PingPong(n int) *sim.Engine {
	e := sim.NewEngine()
	ping, pong := sim.NewCond(e), sim.NewCond(e)
	e.Spawn("pong", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			pong.Wait(p)
			ping.Signal()
		}
	})
	e.Spawn("ping", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			pong.Signal()
			ping.Wait(p)
		}
	})
	if err := e.Run(); err != nil {
		panic(err)
	}
	return e
}

// SleepYield is the pure yield workload: one process calls Sleep(0)
// n times. Every iteration is one same-timestamp wake event — the
// now-queue / own-wakeup fast path.
func SleepYield(n int) *sim.Engine {
	e := sim.NewEngine()
	e.Spawn("yielder", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(0)
		}
	})
	if err := e.Run(); err != nil {
		panic(err)
	}
	return e
}

// TimerChurn is the heap workload: `procs` processes each sleep n
// times for pseudorandom positive durations (deterministic LCG), so
// nearly every event goes through the time-ordered queue rather than
// the same-timestamp fast path.
func TimerChurn(procs, n int) *sim.Engine {
	e := sim.NewEngine()
	for i := 0; i < procs; i++ {
		seed := uint64(i + 1)
		e.Spawn("timer", func(p *sim.Proc) {
			s := seed
			for j := 0; j < n; j++ {
				s = s*6364136223846793005 + 1442695040888963407
				p.Sleep(sim.Time(s%1000 + 1))
			}
		})
	}
	if err := e.Run(); err != nil {
		panic(err)
	}
	return e
}

// CoupledWindows is the coupled-engine window-loop workload: a
// PHOLD-style token storm over `groups` single-rank node groups on
// the CoupledEngine, built so the steady-state dispatch/barrier path
// allocates nothing. Every closure the storm needs (one event fn and
// one barrier op fn per group) is prepared up front; an event on group
// g defers g's op, and the op — running one at a time at the window
// barrier in (at, key) order — draws the next destination and jitter
// from g's own LCG stream and re-arms the destination's event with
// ce.At. Each hop is delayed at least the lookahead, so scheduling is
// always window-legal, and all shared state (the hop budget, the LCG
// streams) mutates only in barrier order — the storm is deterministic
// and worker-count-invariant by construction. Roughly `events` events
// are dispatched; panics on engine errors.
func CoupledWindows(groups, workers, events int, seed uint64) *sim.CoupledEngine {
	ce, err := NewCoupledWindows(groups, workers, events, seed)
	if err != nil {
		panic(err)
	}
	if err := ce.Run(); err != nil {
		panic(err)
	}
	return ce
}

// NewCoupledWindows builds the coupled window workload without running
// it, for callers that want to time Run itself.
func NewCoupledWindows(groups, workers, events int, seed uint64) (*sim.CoupledEngine, error) {
	groupOf := make([]int, groups)
	for g := range groupOf {
		groupOf[g] = g
	}
	ce, err := sim.NewCoupled(groupOf, 2*sim.Microsecond, workers)
	if err != nil {
		return nil, err
	}
	ArmCoupledWindows(ce, events, seed)
	return ce, nil
}

// ArmCoupledWindows schedules the CoupledWindows token storm on a
// fresh coupled engine of single-rank groups, for callers that
// configure the engine first (a schedule perturbation, for one).
func ArmCoupledWindows(ce *sim.CoupledEngine, events int, seed uint64) {
	groups, lookahead := ce.Groups(), ce.Lookahead()
	// Per-group LCG streams, consumed only from barrier ops (total
	// order), so every draw sequence is worker-count-invariant.
	rng := make([]uint64, groups)
	for g := range rng {
		rng[g] = seed*0x9e3779b97f4a7c15 + uint64(g)*0xbf58476d1ce4e5b9 + 1
	}
	step := func(g int) uint64 {
		s := rng[g]*6364136223846793005 + 1442695040888963407
		rng[g] = s
		return s >> 17
	}
	hopsLeft := events
	evFns := make([]func(), groups)
	opFns := make([]func(), groups)
	for g := range opFns {
		g := g
		opFns[g] = func() {
			if hopsLeft <= 0 {
				return // token retires
			}
			hopsLeft--
			dst := int(step(g) % uint64(groups))
			at := ce.Sub(g).Now() + lookahead + sim.Time(step(g)%1024)*sim.Nanosecond
			ce.At(dst, at, evFns[dst])
		}
		evFns[g] = func() {
			ce.Defer(g, ce.Sub(g).Now(), opFns[g])
		}
	}
	tokens := groups / 2
	if tokens > events {
		tokens = events
	}
	if tokens < 1 {
		tokens = 1
	}
	for t := 0; t < tokens; t++ {
		g := t % groups
		ce.Sub(g).At(sim.Time(t%977)*sim.Nanosecond, evFns[g])
	}
}

// Broadcast is the fan-out workload: `procs` waiters park on one
// condition and a driver broadcasts n times; every round wakes all
// waiters at the same timestamp.
func Broadcast(procs, n int) *sim.Engine {
	e := sim.NewEngine()
	c := sim.NewCond(e)
	round := 0
	for i := 0; i < procs; i++ {
		e.Spawn("waiter", func(p *sim.Proc) {
			for r := 1; r <= n; r++ {
				c.WaitFor(p, func() bool { return round >= r })
			}
		})
	}
	e.Spawn("driver", func(p *sim.Proc) {
		for r := 1; r <= n; r++ {
			p.Sleep(10)
			round = r
			c.Broadcast()
		}
	})
	if err := e.Run(); err != nil {
		panic(err)
	}
	return e
}
