package sim_test

// Tests for the coupled conservative-lookahead engine: construction
// validation, the deferred-op mailbox bound, the barrier event limit,
// the time-overflow guard, and the one-group delegation path. The
// heavyweight invariance property (identical digests at every worker
// count) is exercised end-to-end by internal/conformance's
// TestShardCountInvariant* suite.

import (
	"fmt"
	"math"
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

func TestCoupledMailboxCap(t *testing.T) {
	ce, err := sim.NewCoupled([]int{0, 1}, sim.Microsecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	ce.SetMailboxCap(4)
	ce.Sub(0).Spawn("burst", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			ce.Defer(0, p.Now(), func() {})
		}
	})
	err = ce.Run()
	if err == nil || !strings.Contains(err.Error(), "over capacity") {
		t.Fatalf("want mailbox capacity error, got %v", err)
	}
}

// TestCoupledEventLimitAtBarrier pins the whole-run event limit that
// Run checks after each window barrier. A cross-group ping-pong runs
// one event per window, so no single group reaches the limit its own
// engine enforces; only the barrier check can stop the volley, and it
// does so on the first window that pushes the total past the limit.
func TestCoupledEventLimitAtBarrier(t *testing.T) {
	const la = sim.Microsecond
	const limit = 100
	for _, workers := range []int{1, 2} {
		ce, err := sim.NewCoupled([]int{0, 1}, la, workers)
		if err != nil {
			t.Fatal(err)
		}
		ce.SetEventLimit(limit)
		var volley func(me int)
		volley = func(me int) {
			now := ce.Sub(me).Now()
			ce.Defer(me, now, func() {
				ce.At(1-me, now+la, func() { volley(1 - me) })
			})
		}
		ce.Sub(0).At(0, func() { volley(0) })
		err = ce.Run()
		if err == nil || !strings.Contains(err.Error(), "coupled event limit") {
			t.Fatalf("workers=%d: want coupled event limit error, got %v", workers, err)
		}
		if ce.Executed() != limit+1 {
			t.Fatalf("workers=%d: executed %d events, want the barrier to stop at %d",
				workers, ce.Executed(), limit+1)
		}
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

func TestCoupledOneGroupDelegates(t *testing.T) {
	// A single node group needs no window protocol (and a linkless
	// topology has no lookahead): Run must delegate to the sub-engine
	// and still count one window.
	ce, err := sim.NewCoupled([]int{0, 0, 0}, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	var ticks int
	ce.Sub(0).Spawn("p", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(sim.Microsecond)
			ticks++
		}
	})
	if err := ce.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 5 {
		t.Fatalf("ticks = %d", ticks)
	}
	if ce.Windows() != 1 {
		t.Fatalf("one-group run should report 1 window, got %d", ce.Windows())
	}
	if ce.Elapsed() != 5*sim.Microsecond {
		t.Fatalf("elapsed = %v", ce.Elapsed())
	}
}

// poolCase is one pool failure scenario: a world of `groups`
// single-rank groups in which the groups listed in bad misbehave
// inside the first window while the others start and then sleep past
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
// each failing group. The 10µs lookahead keeps every failure inside
// the first window (group 200's event-limit error trips near 4.2µs).
// The engine must pick the surfaced failure by ascending group order,
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

// TestCoupledPoolErrorPropagation pins the worker-pool error contract:
// when several groups fail in one window, the surfaced error is the
// lowest-numbered failing group's, and the error string is identical
// at every worker count of each scenario.
func TestCoupledPoolErrorPropagation(t *testing.T) {
	for _, c := range poolCases {
		var want string
		for _, workers := range c.workers {
			ce := poolScenario(t, c, workers, func(ce *sim.CoupledEngine, g int) {
				ce.Sub(g).Spawn("bad", func(p *sim.Proc) {
					// Exceed the event limit inside the window; each
					// failing group trips it at its own simulated
					// time, so error strings differ and ordering
					// mistakes show.
					for i := 0; i < 100; i++ {
						p.Sleep(sim.Nanosecond * sim.Time(1+g))
					}
				})
			})
			ce.SetEventLimit(20)
			err := ce.Run()
			if err == nil {
				t.Fatalf("groups=%d workers=%d: want event-limit error", c.groups, workers)
			}
			if !strings.Contains(err.Error(), "event limit") {
				t.Fatalf("groups=%d workers=%d: unexpected error %v", c.groups, workers, err)
			}
			if want == "" {
				want = err.Error()
			} else if err.Error() != want {
				t.Fatalf("groups=%d workers=%d: error %q != workers=1 error %q", c.groups, workers, err.Error(), want)
			}
		}
	}
}

// TestCoupledPoolPanicPropagation pins the panic contract: a panic in
// an event closure executes on whichever pool worker dispatched it and
// must be re-raised on Run's goroutine; the chosen panic is the
// lowest-numbered panicking group's at every worker count of each
// scenario. (Panics in proc bodies are outside this contract: procs
// own their goroutines at every worker count.)
func TestCoupledPoolPanicPropagation(t *testing.T) {
	for _, c := range poolCases {
		want := fmt.Sprintf("boom-%d", c.bad[0])
		for _, workers := range c.workers {
			ce := poolScenario(t, c, workers, func(ce *sim.CoupledEngine, g int) {
				ce.Sub(g).At(sim.Microsecond, func() {
					panic(fmt.Sprintf("boom-%d", g))
				})
			})
			got := func() (r any) {
				defer func() { r = recover() }()
				_ = ce.Run()
				return nil
			}()
			if got != want {
				t.Fatalf("groups=%d workers=%d: recovered %v, want %s", c.groups, workers, got, want)
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

// TestCoupledGroupStats requires the per-group summaries to account
// for every rank and every executed event exactly once, and the run's
// busy time, measured once (inline) or per worker and window (pool),
// to be folded into both GroupStats and BusyWall, at every worker
// count. A zero wall interval reports no busy time.
func TestCoupledGroupStats(t *testing.T) {
	const ranks = 48
	for _, workers := range []int{1, 2, 4} {
		t0 := time.Now()
		ce := simbench.CoupledWindows(ranks, workers, 30000, 7)
		wall := time.Since(t0)
		st := ce.GroupStats()
		if len(st) != ce.Groups() {
			t.Fatalf("workers=%d: %d group stats for %d groups", workers, len(st), ce.Groups())
		}
		var executed int64
		var busy time.Duration
		sumRanks := 0
		for _, s := range st {
			executed += s.Executed
			sumRanks += s.Ranks
			busy += s.Busy
		}
		if executed != int64(ce.Executed()) || sumRanks != ranks {
			t.Fatalf("workers=%d: group stats sum to %d events / %d ranks, want %d / %d",
				workers, executed, sumRanks, ce.Executed(), ranks)
		}
		if busy <= 0 {
			t.Fatalf("workers=%d: group stats sum to %v busy", workers, busy)
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
