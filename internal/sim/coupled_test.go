package sim_test

// Tests for the coupled conservative-lookahead engine: construction
// validation, the per-group deferred-op cap, the barrier's one-round
// rule, the time-overflow guard, the one-group run, the window pool,
// and heap entries and runs outgrowing their first capacity. The
// heavyweight invariance property (identical digests at every worker
// count) is exercised end-to-end by internal/conformance's
// TestShardCountInvariant* suite.

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"msgroofline/internal/sim"
	"msgroofline/internal/sim/simbench"
)

func TestCoupledConstructionErrors(t *testing.T) {
	if _, err := sim.NewCoupled(nil, sim.Microsecond, 1); err == nil {
		t.Error("empty groupOf should fail")
	}
	if _, err := sim.NewCoupled([]int{0, 2}, sim.Microsecond, 1); err == nil {
		t.Error("non-dense group ids should fail")
	}
	if _, err := sim.NewCoupled([]int{0, 1}, 0, 1); err == nil {
		t.Error("zero lookahead with two groups should fail")
	}
	ce, err := sim.NewCoupled([]int{0, 1, 0, 1}, sim.Microsecond, 64)
	if err != nil {
		t.Fatal(err)
	}
	if ce.Groups() != 2 {
		t.Fatalf("Groups = %d", ce.Groups())
	}
	if ce.Workers() != 2 {
		t.Fatalf("workers should clamp to the group count, got %d", ce.Workers())
	}
}

// TestCoupledMailboxCap checks the per-window cap on a group's
// deferred ops and the error contract: groups 1 and 3 of a 4-group
// world both go over the cap in the first window, and at every worker
// count the run fails naming group 1, the lowest. The last case makes
// the split adverse at two workers: a pool hook holds the coordinator
// until the helper has claimed groups 0 to 2, and group 2 holds the
// helper until group 3 has run, so group 3's error is in worker 0's
// run and group 1's in worker 1's.
func TestCoupledMailboxCap(t *testing.T) {
	for _, tc := range []struct {
		workers int
		adverse bool
	}{{1, false}, {2, false}, {4, false}, {2, true}} {
		ce, err := sim.NewCoupled([]int{0, 1, 2, 3}, sim.Microsecond, tc.workers)
		if err != nil {
			t.Fatal(err)
		}
		helperHas2, ran3 := make(chan struct{}), make(chan struct{})
		if tc.adverse {
			first := true
			sim.SetPoolHook(ce, func(w int) {
				if w == 0 && first {
					first = false
					<-helperHas2
				}
			})
		}
		op := func() {}
		for r := 0; r < 4; r++ {
			n := 10
			if r%2 == 1 {
				n = sim.DefaultMailboxCap + 1
			}
			ce.Sub(r).Spawn("burst", func(p *sim.Proc) {
				if tc.adverse && r == 2 {
					close(helperHas2)
					<-ran3
				}
				for i := 0; i < n; i++ {
					ce.Defer(r, p.Now(), op)
				}
				if tc.adverse && r == 3 {
					close(ran3)
				}
			})
		}
		err = ce.Run()
		if err == nil || !strings.Contains(err.Error(), "group 1 over capacity") {
			t.Fatalf("workers=%d adverse=%v: want group 1's mailbox capacity error, got %v", tc.workers, tc.adverse, err)
		}
	}
}

// TestCoupledBarrierDeferPanics checks the barrier's one-round
// contract: a deferred op that defers again must panic, at every
// worker count, instead of leaving its op in a worker's run until the
// next barrier.
func TestCoupledBarrierDeferPanics(t *testing.T) {
	for _, workers := range []int{1, 2} {
		ce, err := sim.NewCoupled([]int{0, 1}, sim.Microsecond, workers)
		if err != nil {
			t.Fatal(err)
		}
		ce.Sub(0).Spawn("nested", func(p *sim.Proc) {
			ce.Defer(0, p.Now(), func() { ce.Defer(1, p.Now(), func() {}) })
		})
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "must not defer") {
					t.Fatalf("workers=%d: a barrier-time Defer gave %v, want a panic stating the contract", workers, r)
				}
			}()
			_ = ce.Run()
		}()
	}
}

// TestCoupledTimeOverflowDegradesToGlobalWindow checks the horizon
// guard at the top of the time axis: when minNext + lookahead would
// overflow the signed 64-bit clock, the window bound must saturate at
// the maximum representable time instead of wrapping negative, and
// that window must still execute every event, with digests that do
// not depend on the worker count.
func TestCoupledTimeOverflowDegradesToGlobalWindow(t *testing.T) {
	const n = 8
	top := sim.Time(math.MaxInt64)
	run := func(workers int) (uint64, uint64) {
		t.Helper()
		ce, err := sim.NewCoupled([]int{0, 1}, sim.Microsecond, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			// Every event sits within one lookahead of the clock
			// maximum (the maximum itself is the idle-group sentinel),
			// so the very first window trips the overflow guard.
			ce.Sub(i%2).At(top-1-sim.Time(i), func() {})
		}
		done := make(chan error, 1)
		go func() { done <- ce.Run() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: Run did not finish; the window bound wrapped", workers)
		}
		return ce.Executed(), ce.Digest()
	}
	exec1, dig1 := run(1)
	exec2, dig2 := run(2)
	if exec1 != n || exec2 != n {
		t.Fatalf("executed %d / %d events, want %d", exec1, exec2, n)
	}
	if dig1 != dig2 {
		t.Fatalf("saturated-window digest differs: %016x != %016x", dig1, dig2)
	}
}

func TestCoupledOneGroupRunsOneWindow(t *testing.T) {
	// A single node group has no lookahead on a linkless topology: Run
	// executes it in one unbounded window with one dispatch, and
	// reports a deadlock exactly as the bare sequential engine does.
	ticks := 0
	spawn := func(e *sim.Engine) {
		c := sim.NewCond(e)
		e.Spawn("p", func(p *sim.Proc) {
			for i := 0; i < 5; i++ {
				p.Sleep(sim.Microsecond)
				ticks++
			}
		})
		e.Spawn("stuck-b", func(p *sim.Proc) { p.Sleep(sim.Microsecond); c.Wait(p) })
		e.Spawn("stuck-a", func(p *sim.Proc) { c.Wait(p) })
	}
	ce, err := sim.NewCoupled([]int{0, 0, 0}, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	spawn(ce.Sub(0))
	err = ce.Run()
	if ticks != 5 || ce.Windows() != 1 || ce.Dispatches() != 1 || ce.Elapsed() != 5*sim.Microsecond {
		t.Fatalf("ticks %d, windows %d, dispatches %d, elapsed %v; want 5, 1, 1, 5µs", ticks, ce.Windows(), ce.Dispatches(), ce.Elapsed())
	}
	bare := sim.NewEngine()
	spawn(bare)
	var d *sim.DeadlockError
	if want := bare.Run(); !errors.As(err, &d) || !reflect.DeepEqual(err, want) {
		t.Fatalf("Run = %v, want the bare engine's %v", err, want)
	}
}

// poolCase is one pool failure scenario: a world of `groups`
// single-rank groups in which the groups listed in bad misbehave
// in the first two windows while the others start and then sleep past
// it, run at the listed worker counts (G, and G+1 clamped to G,
// included).
type poolCase struct {
	groups  int
	bad     []int
	workers []int
}

// poolCases are the two failure scenarios. In the narrow one only
// groups 2 and 4 fail. In the wide one, with the derived block sizes
// of 16 (workers=2) and 8 (workers=4), groups 9, 10, 11 and 13 share
// one claimed block that starts at a healthy group (0 or 8): the
// lowest failing group is neither the first in its block nor alone in
// it.
var poolCases = []poolCase{
	{groups: 6, bad: []int{2, 4}, workers: []int{1, 2, 6, 7}},
	{groups: 256, bad: []int{9, 10, 11, 13, 200}, workers: []int{1, 2, 4, 257}},
}

// poolScenario builds c's world; misbehave is invoked at setup for
// each failing group. The 10µs lookahead keeps every failure within
// the first two windows. The engine must pick the surfaced failure by ascending group order,
// not completion order, at every worker count.
func poolScenario(t *testing.T, c poolCase, workers int, misbehave func(ce *sim.CoupledEngine, g int)) *sim.CoupledEngine {
	t.Helper()
	groupOf := make([]int, c.groups)
	for g := range groupOf {
		groupOf[g] = g
	}
	ce, err := sim.NewCoupled(groupOf, 10*sim.Microsecond, workers)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < c.groups; g++ {
		if slices.Contains(c.bad, g) {
			misbehave(ce, g)
			continue
		}
		ce.Sub(g).Spawn("quiet", func(p *sim.Proc) {
			p.Sleep(100 * sim.Microsecond)
		})
	}
	return ce
}

// poolModes choose who claims a pooled task's blocks: whoever gets
// there ("any"), the coordinator alone, with every helper held out of
// the pool until the run ends ("held"), or the helpers first, with the
// coordinator pausing after it opens the gate until a helper it woke
// is about to join, and 1 ms more ("late"). The first pooled window
// always wakes the helpers. checkJoins fails a test in which a held
// helper joined, or no late run was joined by a helper.
var poolModes = []string{"any", "held", "late"}

// armPool installs mode's pool hook on ce and returns what releases it.
func armPool(ce *sim.CoupledEngine, mode string) (release func()) {
	switch mode {
	case "held":
		hold := make(chan struct{})
		sim.SetPoolHook(ce, func(w int) {
			if w > 0 {
				<-hold
			}
		})
		return func() { close(hold) }
	case "late":
		entered := make(chan struct{}, 1)
		sim.SetPoolHook(ce, func(w int) {
			if w > 0 {
				select {
				case entered <- struct{}{}:
				default:
				}
				return
			}
			select {
			case <-entered:
			case <-time.After(100 * time.Millisecond):
			}
			time.Sleep(time.Millisecond)
		})
	}
	return func() {}
}

// checkJoins records run ce of mode in lateJoins, and fails t if a held
// helper joined.
func checkJoins(t *testing.T, ce *sim.CoupledEngine, mode string, lateJoins *uint64) {
	t.Helper()
	j := ce.Pool().Joined
	if mode == "held" && j != 0 {
		t.Fatalf("workers=%d: a held helper joined %d windows", ce.Workers(), j)
	}
	if mode == "late" {
		*lateJoins += j
	}
}

// TestCoupledPoolPanicPropagation pins the panic contract: a panic in
// an event closure or a process body executes on whichever pool
// worker dispatched it, the coordinator or a helper, and must be
// re-raised on Run's goroutine; the chosen panic is the
// lowest-numbered panicking group's at every worker count of each
// scenario.
func TestCoupledPoolPanicPropagation(t *testing.T) {
	misbehave := []struct {
		kind string
		bad  func(ce *sim.CoupledEngine, g int)
	}{
		{"event", func(ce *sim.CoupledEngine, g int) {
			ce.Sub(g).At(sim.Microsecond, func() {
				panic(fmt.Sprintf("boom-%d", g))
			})
		}},
		{"process", func(ce *sim.CoupledEngine, g int) {
			ce.Sub(g).Spawn("bad", func(p *sim.Proc) {
				p.Sleep(ce.Lookahead())
				panic(fmt.Sprintf("boom-%d", g))
			})
		}},
	}
	var lateJoins uint64
	for _, m := range misbehave {
		for _, c := range poolCases {
			want := fmt.Sprintf("boom-%d", c.bad[0])
			for _, workers := range c.workers {
				for _, mode := range poolModes {
					ce := poolScenario(t, c, workers, m.bad)
					release := armPool(ce, mode)
					got := func() (r any) {
						defer func() { r = recover() }()
						_ = ce.Run()
						return nil
					}()
					release()
					if got != want {
						t.Fatalf("%s groups=%d workers=%d %s: recovered %v, want %s", m.kind, c.groups, workers, mode, got, want)
					}
					checkJoins(t, ce, mode, &lateJoins)
				}
			}
		}
	}
	if lateJoins == 0 {
		t.Fatal("no helper joined a late run")
	}
}

// TestCoupledPoolNeverWaitsForParkedHelper holds every helper out of
// the pool for the whole run. The coordinator must then run every
// window alone, without waiting for a helper it woke, and the 64- and
// 8192-group storms must match their workers=1 runs.
func TestCoupledPoolNeverWaitsForParkedHelper(t *testing.T) {
	for _, groups := range []int{64, 8192} {
		ref := simbench.CoupledWindows(groups, 1, 30000, 7)
		ce, err := simbench.NewCoupledWindows(groups, 4, 30000, 7)
		if err != nil {
			t.Fatal(err)
		}
		release := armPool(ce, "held")
		done := make(chan error, 1)
		go func() { done <- ce.Run() }()
		select {
		case err = <-done:
		case <-time.After(time.Minute):
			t.Fatalf("groups=%d: the run waited for a held helper", groups)
		}
		release()
		if err != nil {
			t.Fatal(err)
		}
		if ce.Digest() != ref.Digest() || ce.Executed() != ref.Executed() || ce.Elapsed() != ref.Elapsed() {
			t.Fatalf("groups=%d: (digest,events,elapsed)=(%x,%d,%v) != workers=1 (%x,%d,%v)", groups,
				ce.Digest(), ce.Executed(), ce.Elapsed(), ref.Digest(), ref.Executed(), ref.Elapsed())
		}
		p := ce.Pool()
		if p.Pooled != ce.Windows() || p.Woken == 0 || p.Joined != 0 || p.Joins != 0 {
			t.Fatalf("groups=%d: pool %+v over %d windows, want every window pooled, some woken, none joined",
				groups, p, ce.Windows())
		}
	}
}

// TestCoupledWakeCountsActiveGroups pins the wake rule: a pooled
// window wakes the helpers when it is the run's first or holds at
// least WakeMin active groups, so Woken is a count of the run, not of
// the host. A world of three windows (1, WakeMin-1 and WakeMin active
// groups) wakes twice at every pooled worker count, and the 64- and
// 1024-group storms wake the same number of windows at workers 2 and
// 4 on every run, the 64-group storm only its first.
func TestCoupledWakeCountsActiveGroups(t *testing.T) {
	const la = sim.Microsecond
	for _, workers := range []int{2, 4} {
		groupOf := make([]int, sim.WakeMin)
		for g := range groupOf {
			groupOf[g] = g
		}
		ce, err := sim.NewCoupled(groupOf, la, workers)
		if err != nil {
			t.Fatal(err)
		}
		ce.Sub(0).At(la, func() {})
		for g := range groupOf {
			if g < sim.WakeMin-1 {
				ce.Sub(g).At(3*la, func() {})
			}
			ce.Sub(g).At(5*la, func() {})
		}
		if err := ce.Run(); err != nil {
			t.Fatal(err)
		}
		if p := ce.Pool(); ce.Windows() != 3 || p.Pooled != 3 || p.Woken != 2 {
			t.Fatalf("workers=%d: pool %+v over %d windows, want 3 pooled and 2 woken", workers, p, ce.Windows())
		}
	}
	for _, groups := range []int{64, 1024} {
		var want uint64
		for run := 0; run < 3; run++ {
			for _, workers := range []int{2, 4} {
				woken := simbench.CoupledWindows(groups, workers, 30000, 7).Pool().Woken
				if run == 0 && workers == 2 {
					want = woken
				}
				if woken != want || groups == 64 && woken != 1 {
					t.Fatalf("groups=%d workers=%d run %d: %d windows woken, want %d (1 at 64 groups)",
						groups, workers, run, woken, want)
				}
			}
		}
	}
}

// TestCoupledActiveSkipReawaken drives a long two-group volley while a
// third group goes idle after one event, then re-awakens it with a
// barrier-delivered At. The idle group must not be dispatched while
// idle (Dispatches stays near one group per window), must wake exactly
// at the delivered time, and the event-order digest must not depend on
// the worker count.
func TestCoupledActiveSkipReawaken(t *testing.T) {
	const la = sim.Microsecond
	const rounds = 16
	run := func(workers int) (woke sim.Time, windows, dispatches uint64, digest uint64) {
		ce, err := sim.NewCoupled([]int{0, 1, 2}, la, workers)
		if err != nil {
			t.Fatal(err)
		}
		ce.Sub(2).Spawn("idler", func(p *sim.Proc) {
			p.Sleep(la) // one event, then the group has no work at all
		})
		var volley func(me, other, k int)
		volley = func(me, other, k int) {
			now := ce.Sub(me).Now()
			if k == rounds {
				ce.Defer(me, now, func() {
					ce.At(2, now+la, func() {
						woke = ce.Sub(2).Now()
					})
				})
				return
			}
			ce.Defer(me, now, func() {
				ce.At(other, now+la, func() { volley(other, me, k+1) })
			})
		}
		ce.Sub(0).Spawn("kick", func(p *sim.Proc) {
			p.Sleep(la)
			volley(0, 1, 0)
		})
		if err := ce.Run(); err != nil {
			t.Fatal(err)
		}
		return woke, ce.Windows(), ce.Dispatches(), ce.Digest()
	}

	woke1, win1, disp1, dig1 := run(1)
	if woke1 != sim.Time(rounds+2)*la {
		t.Fatalf("re-awakened at %v, want %v", woke1, sim.Time(rounds+2)*la)
	}
	if win1 < rounds {
		t.Fatalf("windows = %d, want >= %d (one per volley hop)", win1, rounds)
	}
	// The volley keeps exactly one group eligible per window (plus the
	// first window's extra starters); without active-group dispatch
	// this would be 3 per window.
	if disp1 > win1+3 {
		t.Fatalf("dispatches = %d over %d windows: idle groups were dispatched", disp1, win1)
	}
	for _, workers := range []int{2, 3} {
		woke, win, disp, dig := run(workers)
		if woke != woke1 || win != win1 || disp != disp1 || dig != dig1 {
			t.Fatalf("workers=%d: (woke,windows,dispatches,digest)=(%v,%d,%d,%x) != workers=1 (%v,%d,%d,%x)",
				workers, woke, win, disp, dig, woke1, win1, disp1, dig1)
		}
	}
}

// TestCoupledGroupStats requires the group engines (Sub) to account
// for every executed event exactly once, and the run's
// busy time, measured once (inline) or per worker and window (pool),
// to be reported by Busy and BusyWall, at every worker count. A zero
// wall interval reports no busy time. The loop's phases are chained
// clock reads, so at one worker exec + barrier + scan is exactly the
// inline loop's busy time.
func TestCoupledGroupStats(t *testing.T) {
	const ranks = 48
	for _, workers := range []int{1, 2, 4} {
		t0 := time.Now()
		ce := simbench.CoupledWindows(ranks, workers, 30000, 7)
		wall := time.Since(t0)
		var executed uint64
		for g := range ce.Groups() {
			executed += ce.Sub(g).Executed()
		}
		if executed != ce.Executed() {
			t.Fatalf("workers=%d: group engines sum to %d events, want %d", workers, executed, ce.Executed())
		}
		if ce.Busy() <= 0 {
			t.Fatalf("workers=%d: Busy() = %v", workers, ce.Busy())
		}
		if exec, barrier, scan := ce.PhaseWall(); workers == 1 && exec+barrier+scan != ce.Busy() {
			t.Fatalf("workers=1: exec %v + barrier %v + scan %v != busy %v", exec, barrier, scan, ce.Busy())
		}
		if bw := ce.BusyWall(wall); bw <= 0 {
			t.Fatalf("workers=%d: BusyWall(%v) = %v, want > 0", workers, wall, bw)
		}
		if ce.BusyWall(0) != 0 {
			t.Fatalf("workers=%d: BusyWall(0) = %v, want 0", workers, ce.BusyWall(0))
		}
	}
}

// TestCoupledWindowsWorkerInvariance certifies the benchmark workload
// itself: the CoupledWindows token storm must execute the same event
// population in the same order (digest, count, elapsed) at every
// worker count.
func TestCoupledWindowsWorkerInvariance(t *testing.T) {
	ref := simbench.CoupledWindows(48, 1, 30000, 7)
	if ref.Executed() == 0 {
		t.Fatal("workload dispatched no events")
	}
	for _, workers := range []int{2, 4} {
		ce := simbench.CoupledWindows(48, workers, 30000, 7)
		if ce.Digest() != ref.Digest() || ce.Executed() != ref.Executed() || ce.Elapsed() != ref.Elapsed() {
			t.Fatalf("workers=%d: (digest,events,elapsed)=(%x,%d,%v) != workers=1 (%x,%d,%v)",
				workers, ce.Digest(), ce.Executed(), ce.Elapsed(),
				ref.Digest(), ref.Executed(), ref.Elapsed())
		}
	}
}

// TestCoupledParallelDeliveryMatchesInline checks the barrier's
// deliveries for worker invariance. The token storm over 8192 groups
// delivers thousands of events per barrier; at workers 1 to 4, with
// and without a schedule perturbation, the delivery count must be
// nonzero and the same, and the event population, its order and the
// end time must not change. 8192 groups do not split evenly over 3
// workers, so workers 3 runs uneven blocks.
func TestCoupledParallelDeliveryMatchesInline(t *testing.T) {
	const groups, events = 8192, 30000
	groupOf := make([]int, groups)
	for g := range groupOf {
		groupOf[g] = g
	}
	storm := func(workers int, p *sim.Perturbation) *sim.CoupledEngine {
		t.Helper()
		ce, err := sim.NewCoupled(groupOf, 2*sim.Microsecond, workers)
		if err != nil {
			t.Fatal(err)
		}
		if p != nil {
			ce.SetPerturbation(p)
		}
		simbench.ArmCoupledWindows(ce, events, 3)
		if err := ce.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ce.Deliveries() == 0 {
			t.Fatalf("workers=%d: no barrier delivery", workers)
		}
		return ce
	}
	perturb := func() *sim.Perturbation {
		return &sim.Perturbation{Seed: 11, MaxJitter: 300 * sim.Nanosecond}
	}
	ref, fuzzed := storm(1, nil), storm(1, perturb())
	if fuzzed.Digest() == ref.Digest() {
		t.Fatal("the perturbation left the schedule unchanged")
	}
	for _, workers := range []int{2, 3, 4} {
		for _, want := range []*sim.CoupledEngine{ref, fuzzed} {
			var p *sim.Perturbation
			if want == fuzzed {
				p = perturb()
			}
			ce := storm(workers, p)
			if ce.Digest() != want.Digest() || ce.Executed() != want.Executed() ||
				ce.Elapsed() != want.Elapsed() || ce.Deliveries() != want.Deliveries() {
				t.Fatalf("workers=%d perturbed=%t: (digest,events,elapsed,deliveries)=(%x,%d,%v,%d) != workers=1 (%x,%d,%v,%d)",
					workers, p != nil, ce.Digest(), ce.Executed(), ce.Elapsed(), ce.Deliveries(),
					want.Digest(), want.Executed(), want.Elapsed(), want.Deliveries())
			}
		}
	}
}

// TestCoupledInlineOverflowKeepsSchedule pins a storm in which every
// group outgrows the heap entries its record holds inline: each of 256
// two-rank groups starts with 12 pending events, all inside the first
// window, so its heap moves to a fresh allocation, and every one of
// those events defers an op in that window, so each worker's run grows
// past its capacity. The barrier ops re-arm about 3000 tokens. Digest,
// event count and end time must equal the values the engine gave before
// groups kept their first heap entries inline, at every worker count.
func TestCoupledInlineOverflowKeepsSchedule(t *testing.T) {
	const (
		groups, perGroup, hops = 256, 12, 40000
		wantDigest             = 0x196e297120551a16
		wantEvents             = 43072
		wantElapsed            = sim.Time(38553000)
	)
	groupOf := make([]int, 2*groups)
	for r := range groupOf {
		groupOf[r] = r / 2
	}
	const la = 2 * sim.Microsecond
	for _, workers := range []int{1, 2, 4} {
		ce, err := sim.NewCoupled(groupOf, la, workers)
		if err != nil {
			t.Fatal(err)
		}
		// Per-rank LCG streams, drawn only by barrier ops (one total
		// order), so the storm is the same at every worker count.
		rng := make([]uint64, len(groupOf))
		for r := range rng {
			rng[r] = uint64(r)*0x9e3779b97f4a7c15 + 1
		}
		draw := func(r int) uint64 {
			rng[r] = rng[r]*6364136223846793005 + 1442695040888963407
			return rng[r] >> 17
		}
		left := hops
		var ev func(r int) func()
		ev = func(r int) func() {
			return func() {
				now := ce.EngineOf(r).Now()
				ce.Defer(r, now, func() {
					if left <= 0 {
						return
					}
					left--
					dst := int(draw(r) % uint64(len(groupOf)))
					ce.At(dst, now+la+sim.Time(draw(r)%1500)*sim.Nanosecond, ev(dst))
				})
			}
		}
		for r := range groupOf {
			for i := 0; i < perGroup/2; i++ {
				ce.EngineOf(r).At(sim.Time(i*300+r%7)*sim.Nanosecond, ev(r))
			}
		}
		if err := ce.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ce.Digest() != wantDigest || ce.Executed() != wantEvents || ce.Elapsed() != wantElapsed {
			t.Fatalf("workers=%d: (digest,events,elapsed)=(%#x,%d,%d), want (%#x,%d,%d)",
				workers, ce.Digest(), ce.Executed(), int64(ce.Elapsed()),
				uint64(wantDigest), wantEvents, int64(wantElapsed))
		}
	}
}
