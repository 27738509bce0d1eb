package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1e12*Picosecond {
		t.Fatalf("Second = %d ps, want 1e12", int64(Second))
	}
	if got := FromMicroseconds(3.3); got != 3_300_000*Picosecond {
		t.Fatalf("FromMicroseconds(3.3) = %d, want 3.3e6 ps", int64(got))
	}
	if got := FromSeconds(1.0); got != Second {
		t.Fatalf("FromSeconds(1) = %v, want 1s", got)
	}
	if got := (5 * Microsecond).Microseconds(); got != 5.0 {
		t.Fatalf("Microseconds() = %v, want 5", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0s"},
		{500 * Picosecond, "500ps"},
		{3300 * Nanosecond, "3.300us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d ps).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTransferTime(t *testing.T) {
	// 1 GiB at 1 GB/s: 1073741824 / 1e9 s.
	got := TransferTime(1<<30, 1e9)
	want := FromSeconds(float64(1<<30) / 1e9)
	if got < want-1 || got > want+1 {
		t.Fatalf("TransferTime = %v, want about %v", got, want)
	}
	if TransferTime(0, 1e9) != 0 {
		t.Fatal("zero bytes should take zero time")
	}
	if TransferTime(1, 1e12) == 0 {
		t.Fatal("non-empty transfer must take nonzero time")
	}
}

func TestTransferTimeMonotonic(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return TransferTime(x, 25e9) <= TransferTime(y, 25e9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.At(10, func() { order = append(order, 11) }) // FIFO at equal time
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 11, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30ps", e.Now())
	}
}

func TestEventOrderingRandomized(t *testing.T) {
	// Property: regardless of scheduling order, events fire in
	// nondecreasing time order and the clock matches each firing.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		e := NewEngine()
		n := 200
		var fired []Time
		for i := 0; i < n; i++ {
			d := Time(rng.Intn(1000))
			e.At(d, func() {
				fired = append(fired, e.Now())
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if len(fired) != n {
			t.Fatalf("fired %d events, want %d", len(fired), n)
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			t.Fatal("events fired out of time order")
		}
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		wake = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != 5*Microsecond {
		t.Fatalf("woke at %v, want 5us", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine()
	var trace []string
	for i, d := range []Time{30, 10, 20} {
		name := string(rune('a' + i))
		dd := d
		e.Spawn(name, func(p *Proc) {
			p.Sleep(dd)
			trace = append(trace, p.Name())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"b", "c", "a"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestCondSignalBroadcast(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	ready := 0
	var got []string
	for _, n := range []string{"w1", "w2", "w3"} {
		name := n
		e.Spawn(name, func(p *Proc) {
			c.WaitFor(p, func() bool { return ready > 0 })
			got = append(got, name)
		})
	}
	e.Spawn("signaler", func(p *Proc) {
		p.Sleep(100)
		ready = 1
		c.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("only %d of 3 waiters woke: %v", len(got), got)
	}
}

func TestCondSignalWakesOne(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	woke := 0
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) {
			c.Wait(p)
			woke++
		})
	}
	e.Spawn("s", func(p *Proc) {
		p.Sleep(10)
		c.Signal()
		p.Sleep(10)
		c.Signal()
	})
	err := e.Run()
	if woke != 2 {
		t.Fatalf("woke = %d, want 2", woke)
	}
	// The third waiter deadlocks by design.
	var d *DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("expected deadlock error, got %v", err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	e.Spawn("stuck-a", func(p *Proc) { c.Wait(p) })
	e.Spawn("stuck-b", func(p *Proc) { c.Wait(p) })
	err := e.Run()
	var d *DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(d.Parked) != 2 || d.Parked[0] != "stuck-a" || d.Parked[1] != "stuck-b" {
		t.Fatalf("parked = %v", d.Parked)
	}
}

// TestOwnWakeupRespectsHorizonAndLimit pins the inline fast path of
// park: a process consumes its own next wakeup without a switch only
// inside the RunBefore horizon, whose bound is the limit.
func TestOwnWakeupRespectsHorizonAndLimit(t *testing.T) {
	t.Run("horizon", func(t *testing.T) {
		const bound = 100 * Nanosecond
		e := NewEngine()
		ran := false
		e.Spawn("sleeper", func(p *Proc) {
			p.Sleep(bound)
			ran = true
		})
		e.RunBefore(bound)
		if ran || e.Now() >= bound {
			t.Fatalf("RunBefore(%v) ran the wakeup at the bound: ran=%v now=%v", bound, ran, e.Now())
		}
		if at, ok := e.NextAt(); !ok || at != bound {
			t.Fatalf("NextAt = %v, %v; want %v, true", at, ok, bound)
		}
	})
}

func TestNestedSpawn(t *testing.T) {
	e := NewEngine()
	total := 0
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(10)
		for i := 0; i < 3; i++ {
			p.eng.Spawn("child", func(q *Proc) {
				q.Sleep(5)
				total++
			})
		}
		p.Sleep(100)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if total != 3 {
		t.Fatalf("total = %d, want 3", total)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		c := NewCond(e)
		var stamps []Time
		n := 0
		for i := 0; i < 8; i++ {
			d := Time(i * 13)
			e.Spawn("p", func(p *Proc) {
				p.Sleep(d)
				n++
				c.Broadcast()
				c.WaitFor(p, func() bool { return n >= 8 })
				stamps = append(stamps, p.Now())
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic run lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTimeConversionsAndAccessors(t *testing.T) {
	if got := FromNanoseconds(2.5); got != 2500*Picosecond {
		t.Fatalf("FromNanoseconds = %v", got)
	}
	if got := (3 * Microsecond).Nanoseconds(); got != 3000 {
		t.Fatalf("Nanoseconds = %v", got)
	}
	// Negative durations render through the same unit selection.
	if s := (-3 * Microsecond).String(); s != "-3.000us" {
		t.Fatalf("negative String = %q", s)
	}
}

func TestEngineAtAndExecuted(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(5*Microsecond, func() { fired = true })
	// At with a past time clamps to now (fires immediately).
	past := false
	e.At(-1, func() { past = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired || !past {
		t.Fatal("At events did not fire")
	}
	if e.Executed() != 2 {
		t.Fatalf("Executed = %d", e.Executed())
	}
}

// TestNewEngineAllocatesOnce pins the engine's construction cost: one
// allocation, the Engine itself. Process state (each Proc and its
// coroutine) is made by Spawn. Coupled worlds do not call NewEngine:
// their engines live in the group slab (TestNewCoupledAllocatesPerWorld).
func TestNewEngineAllocatesOnce(t *testing.T) {
	var e *Engine
	if n := testing.AllocsPerRun(100, func() { e = NewEngine() }); n != 1 {
		t.Fatalf("NewEngine made %v allocations, want 1", n)
	}
	if e.Now() != 0 {
		t.Fatalf("NewEngine starts at %v, want 0", e.Now())
	}
}

// TestNewCoupledAllocatesPerWorld pins the coupled engine's
// construction cost to a count that does not grow with the group
// count: the group records are one slab, and each group's heap starts
// in its record's inline entries. It also pins the layout: a record is
// exactly four 64-byte cache lines and a worker's run one.
func TestNewCoupledAllocatesPerWorld(t *testing.T) {
	allocs := func(groups int) float64 {
		groupOf := make([]int, groups)
		for g := range groupOf {
			groupOf[g] = g
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := NewCoupled(groupOf, Microsecond, 2); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(64), allocs(8192); small != large {
		t.Fatalf("NewCoupled made %v allocations for 64 groups and %v for 8192, want equal", small, large)
	}
	if size := unsafe.Sizeof(group{}); size != 256 {
		t.Fatalf("a group record is %d bytes, want 256 (four 64-byte lines)", size)
	}
	if size := unsafe.Sizeof(opRun{}); size != 64 {
		t.Fatalf("a worker's run is %d bytes, want 64 (one line)", size)
	}
}

// TestNewCoupledBytesPerGroup bounds what NewCoupled allocates for a
// world of 100000 single-rank groups: at most 300 bytes per group,
// the 256-byte record plus the per-rank group id and stream counter.
func TestNewCoupledBytesPerGroup(t *testing.T) {
	const groups = 100000
	groupOf := make([]int, groups)
	for g := range groupOf {
		groupOf[g] = g
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ce, err := NewCoupled(groupOf, Microsecond, 2)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / groups; per > 300 {
		t.Fatalf("NewCoupled allocated %d bytes per group over %d groups, want at most 300", per, ce.Groups())
	}
}

func TestScheduleNegativeDelay(t *testing.T) {
	e := NewEngine()
	at, ret := Time(-1), Time(-1)
	e.At(10, func() {
		ret = e.At(e.Now()-5, func() { at = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 10 || ret != 10 {
		t.Fatalf("past-time event fired at %v (At returned %v), want now (10ps)", at, ret)
	}
}

func TestDeadlockErrorMessage(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	e.Spawn("lonely", func(p *Proc) { c.Wait(p) })
	err := e.Run()
	if err == nil || err.Error() == "" {
		t.Fatal("expected descriptive deadlock error")
	}
	if n := len(c.waiters) - c.head; n != 1 {
		t.Fatalf("%d waiters parked, want 1", n)
	}

	// A large deadlock names only the first few processes in sorted
	// order and counts the rest; Parked keeps every name.
	e = NewEngine()
	c = NewCond(e)
	for i := 0; i < 20; i++ {
		e.Spawn(fmt.Sprintf("p%02d", i), func(p *Proc) { c.Wait(p) })
	}
	err = e.Run()
	var d *DeadlockError
	if !errors.As(err, &d) || len(d.Parked) != 20 {
		t.Fatalf("want a DeadlockError with 20 parked processes, got %v", err)
	}
	want := "20 process(es) parked forever: [p00 p01 p02 p03 p04 p05 p06 p07] and 12 more"
	if !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("deadlock message %q, want suffix %q", err.Error(), want)
	}
}

func TestProcAccessors(t *testing.T) {
	e := NewEngine()
	e.Spawn("named", func(p *Proc) {
		if p.Engine() != e {
			t.Error("Engine() mismatch")
		}
		if p.Name() != "named" {
			t.Error("Name() mismatch")
		}
		p.Sleep(-5) // negative sleep clamps to yield
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCondWaitWrongEnginePanics(t *testing.T) {
	e1, e2 := NewEngine(), NewEngine()
	c := NewCond(e2)
	e1.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for cross-engine wait")
			}
		}()
		c.Wait(p)
	})
	_ = e1.Run()
}
