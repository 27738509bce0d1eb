package sim_test

// The equivalence oracle for Proc.Await: a wait run as wakeups
// (WakeAfter, Cond.Enlist and a step) must make exactly the schedule
// calls of the same wait run as blocking code (Sleep, Cond.Wait), so
// both give the same events, digest, clock and body-visible order. The
// scripts are random sleeps, cond waits, signals, broadcasts and, on a
// coupled engine, deferred cross-group broadcasts.

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"msgroofline/internal/sim"
)

const (
	opSleep = iota
	opWait
	opSignal
	opBroadcast
	opKick // a deferred op that broadcasts a cond of another rank's group
)

type scriptOp struct {
	kind, cond, to int
	d              sim.Time
}

// awaitWorld is a random program: ranks in groups, each group with its
// own conds and a ticker that broadcasts them, so most waits end.
type awaitWorld struct {
	groupOf []int
	scripts [][]scriptOp
}

const awaitConds = 3

func newAwaitWorld(seed uint64, groupOf []int, kicks bool) awaitWorld {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	w := awaitWorld{groupOf: groupOf, scripts: make([][]scriptOp, len(groupOf))}
	for r := range w.scripts {
		for range 10 + rng.IntN(30) {
			op := scriptOp{kind: rng.IntN(opKick + 1), cond: rng.IntN(awaitConds), to: rng.IntN(len(groupOf))}
			if op.kind == opKick && !kicks {
				op.kind = opSleep
			}
			if op.kind == opSleep {
				op.d = sim.Time(rng.IntN(4)) * sim.Microsecond / 2
			}
			w.scripts[r] = append(w.scripts[r], op)
		}
	}
	return w
}

// awaitRun is what one run shows: the engine's totals and each
// group's log of (rank, op, time) as the rank's code saw them.
type awaitRun struct {
	executed, digest, resumes uint64
	now                       sim.Time
	logs                      [][]string
	err                       string
}

// run spawns w's ranks on engineOf, blocking or as Await steps, and
// runs them. ce is nil on a plain engine.
func (w awaitWorld) run(asSteps bool, engineOf func(rank int) *sim.Engine, ce *sim.CoupledEngine) [][]string {
	groups := 0
	for _, g := range w.groupOf {
		groups = max(groups, g+1)
	}
	conds, logs := make([][]*sim.Cond, groups), make([][]string, groups)
	for r, g := range w.groupOf {
		if conds[g] == nil {
			e := engineOf(r)
			for range awaitConds {
				conds[g] = append(conds[g], sim.NewCond(e))
			}
			e.Spawn(fmt.Sprintf("ticker%d", g), func(p *sim.Proc) {
				for range 40 {
					p.Sleep(3 * sim.Microsecond)
					for _, c := range conds[g] {
						c.Broadcast()
					}
				}
			})
		}
	}
	for r, script := range w.scripts {
		g := w.groupOf[r]
		note := func(p *sim.Proc, i int) { logs[g] = append(logs[g], fmt.Sprintf("%d.%d@%v", r, i, p.Now())) }
		kick := func(p *sim.Proc, op scriptOp) {
			at, c := p.Now(), conds[w.groupOf[op.to]][op.cond]
			ce.Defer(r, at, func() { ce.At(op.to, at+ce.Lookahead(), c.Broadcast) })
		}
		engineOf(r).Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			if !asSteps {
				for i, op := range script {
					note(p, i)
					switch c := conds[g][op.cond]; op.kind {
					case opSleep:
						p.Sleep(op.d)
						if op.d == 0 {
							note(p, i)
						}
					case opWait:
						c.Wait(p)
					case opSignal:
						c.Signal()
					case opBroadcast:
						c.Broadcast()
					case opKick:
						kick(p, op)
					}
				}
				note(p, len(script))
				return
			}
			// Steps stop before a yield (a sleep of 0), which the body
			// runs blocking and notes again once it returns, so a process
			// mixes both kinds of wait.
			i, armed := 0, false
			step := func() bool {
				if !armed {
					note(p, -1) // a wakeup outside Await ran the step
				}
				for i < len(script) {
					op := script[i]
					if op.kind == opSleep && op.d == 0 {
						return true
					}
					note(p, i)
					i++
					switch c := conds[g][op.cond]; op.kind {
					case opSleep:
						p.WakeAfter(op.d)
						return false
					case opWait:
						c.Enlist(p)
						return false
					case opSignal:
						c.Signal()
					case opBroadcast:
						c.Broadcast()
					case opKick:
						kick(p, op)
					}
				}
				return true
			}
			for {
				if armed = true; !step() {
					p.Await(step)
				}
				if armed = false; i == len(script) {
					break
				}
				note(p, i)
				p.Sleep(0)
				note(p, i)
				i++
			}
			note(p, len(script))
		})
	}
	return logs
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// plainRun runs w on one Engine, perturbed when pert is non-nil.
func (w awaitWorld) plainRun(asSteps bool, pert *sim.Perturbation) awaitRun {
	e := sim.NewEngine()
	e.SetPerturbation(pert)
	logs := w.run(asSteps, func(int) *sim.Engine { return e }, nil)
	err := e.Run()
	return awaitRun{e.Executed(), e.Digest(), e.Resumes(), e.Now(), logs, errString(err)}
}

// coupledRun runs w on a CoupledEngine whose 1µs lookahead cuts
// windows through the scripts' sleeps and waits.
func (w awaitWorld) coupledRun(t *testing.T, asSteps bool, workers int) awaitRun {
	t.Helper()
	ce, err := sim.NewCoupled(w.groupOf, sim.Microsecond, workers)
	if err != nil {
		t.Fatal(err)
	}
	logs := w.run(asSteps, ce.EngineOf, ce)
	err = ce.Run()
	return awaitRun{ce.Executed(), ce.Digest(), ce.Resumes(), ce.Elapsed(), logs, errString(err)}
}

// sameRun reports how a differs from b, resumes aside.
func sameRun(a, b awaitRun) string {
	a.resumes, b.resumes = 0, 0
	if reflect.DeepEqual(a, b) {
		return ""
	}
	return fmt.Sprintf("executed %d digest %016x now %v err %q, want %d %016x %v %q (logs equal: %v)",
		a.executed, a.digest, a.now, a.err, b.executed, b.digest, b.now, b.err, reflect.DeepEqual(a.logs, b.logs))
}

// TestAwaitMatchesBlocking runs random scripts blocking and as Await
// steps on a plain engine, with and without a schedule perturbation.
// The step runs must switch into bodies less often and otherwise
// match exactly.
func TestAwaitMatchesBlocking(t *testing.T) {
	completed := 0
	for seed := uint64(1); seed <= 40; seed++ {
		w := newAwaitWorld(seed, make([]int, 6), false)
		for _, perturbed := range []bool{false, true} {
			pert := func() *sim.Perturbation {
				if !perturbed {
					return nil
				}
				return &sim.Perturbation{Seed: seed, MaxJitter: sim.Microsecond / 4}
			}
			block, steps := w.plainRun(false, pert()), w.plainRun(true, pert())
			if d := sameRun(steps, block); d != "" {
				t.Fatalf("seed %d perturbed=%v: steps gave %s", seed, perturbed, d)
			}
			if steps.resumes >= block.resumes {
				t.Errorf("seed %d perturbed=%v: %d resumes as steps, %d blocking; want fewer", seed, perturbed, steps.resumes, block.resumes)
			}
			if block.err == "" {
				completed++
			}
		}
	}
	if completed < 20 {
		t.Fatalf("only %d of 80 runs ran to the end; the scripts mostly deadlock", completed)
	}
}

// TestAwaitMatchesBlockingCoupled runs random scripts over four node
// groups of a CoupledEngine, whose window horizons cut across steps
// and whose deferred ops wake ranks of other groups, at workers 1, 2
// and 4. Each mode must match itself at every worker count, resumes
// included (the count depends only on each group's events), and the
// step runs must match the blocking ones.
func TestAwaitMatchesBlockingCoupled(t *testing.T) {
	groupOf := []int{0, 0, 1, 1, 1, 2, 3, 3}
	for seed := uint64(1); seed <= 20; seed++ {
		w := newAwaitWorld(seed, groupOf, true)
		var ref [2]awaitRun
		for _, workers := range []int{1, 2, 4} {
			for m, asSteps := range []bool{false, true} {
				got := w.coupledRun(t, asSteps, workers)
				if workers == 1 {
					ref[m] = got
				} else if !reflect.DeepEqual(got, ref[m]) {
					t.Fatalf("seed %d steps=%v workers=%d: resumes %d, %s", seed, asSteps, workers, got.resumes, sameRun(got, ref[m]))
				}
			}
		}
		if d := sameRun(ref[1], ref[0]); d != "" {
			t.Fatalf("seed %d: steps gave %s", seed, d)
		}
		if ref[1].resumes >= ref[0].resumes {
			t.Errorf("seed %d: %d resumes as steps, %d blocking; want fewer", seed, ref[1].resumes, ref[0].resumes)
		}
	}
}

// TestAwaitEnlistedDeadlock checks that a process left enlisted by an
// Await step is named in the DeadlockError, as a blocked Wait is.
func TestAwaitEnlistedDeadlock(t *testing.T) {
	e := sim.NewEngine()
	c := sim.NewCond(e)
	e.Spawn("waiter", func(p *sim.Proc) {
		c.Enlist(p)
		p.Await(func() bool { c.Enlist(p); return false })
	})
	e.Spawn("signaller", func(p *sim.Proc) { c.Signal() })
	var d *sim.DeadlockError
	if err := e.Run(); !errors.As(err, &d) || !reflect.DeepEqual(d.Parked, []string{"waiter"}) {
		t.Fatalf("Run = %v, want a deadlock naming the waiter", err)
	}
}

// TestAwaitStepPanics checks that a panic raised inside a step, which
// runs in the event dispatching the wakeup rather than in the body,
// surfaces from Run on a plain engine and on a coupled one.
func TestAwaitStepPanics(t *testing.T) {
	spawn := func(e *sim.Engine) {
		c := sim.NewCond(e)
		e.Spawn("waiter", func(p *sim.Proc) {
			c.Enlist(p)
			p.Await(func() bool { panic("step failed") })
		})
		e.Spawn("signaller", func(p *sim.Proc) { p.Sleep(sim.Microsecond); c.Signal() })
	}
	check := func(name string, run func() error) {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "step failed") {
				t.Errorf("%s: Run raised %v, want the step's panic", name, r)
			}
		}()
		_ = run()
	}
	e := sim.NewEngine()
	spawn(e)
	check("engine", e.Run)
	for _, workers := range []int{1, 2} {
		ce, err := sim.NewCoupled([]int{0, 1}, sim.Microsecond, workers)
		if err != nil {
			t.Fatal(err)
		}
		spawn(ce.Sub(1))
		ce.Sub(0).Spawn("idle", func(p *sim.Proc) { p.Sleep(5 * sim.Microsecond) })
		check(fmt.Sprintf("coupled workers=%d", workers), ce.Run)
	}
}
