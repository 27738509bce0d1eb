package sim

// Tests for the engine's event-queue internals: a property test that
// replays randomized schedules on both the production queue (4-ary
// heap + now-queue ring, each event stored in its entry) and a
// reference container/heap implementation of the documented semantics,
// a steady-state capacity test, a check that pops clear the entries
// they vacate, and a Cond FIFO test.

import (
	"container/heap"
	"fmt"
	"testing"
)

// --- reference implementation (the documented (at, seq) FIFO order) ---

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); ev := old[n-1]; *h = old[:n-1]; return ev }

type refEngine struct {
	h   refHeap
	now Time
	seq uint64
}

func (r *refEngine) at(t Time, fn func()) {
	if t < r.now {
		t = r.now
	}
	heap.Push(&r.h, &refEvent{at: t, seq: r.seq, fn: fn})
	r.seq++
}

func (r *refEngine) run() {
	for r.h.Len() > 0 {
		ev := heap.Pop(&r.h).(*refEvent)
		if ev.at > r.now {
			r.now = ev.at
		}
		ev.fn()
	}
}

// --- schedule-script driver ---

// scheduler abstracts the production engine and the reference so one
// script drives both.
type scheduler interface {
	at(t Time, fn func())
	run()
	currentTime() Time
}

type simSched struct{ e *Engine }

func (s simSched) at(t Time, fn func()) { s.e.At(t, fn) }
func (s simSched) run()                 { _ = s.e.Run() }
func (s simSched) currentTime() Time    { return s.e.Now() }

type refSched struct{ r *refEngine }

func (s refSched) at(t Time, fn func()) { s.r.at(t, fn) }
func (s refSched) run()                 { s.r.run() }
func (s refSched) currentTime() Time    { return s.r.now }

// mix is a deterministic per-(seed,id,salt) hash so both replicas draw
// identical "random" choices regardless of internal state.
func mix(seed, id, salt int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(id)*0xBF58476D1CE4E5B9 ^ uint64(salt)*0x94D049BB133111EB
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	return int64(x >> 1)
}

// playScript schedules `roots` root events at pseudorandom times;
// each fired event respawns children (recursively, bounded depth, many
// at the current time to stress the now-queue, some in the past to
// exercise the clamp). Returns the firing order of event ids and the
// final clock.
func playScript(s scheduler, seed int64, roots int) ([]int, Time) {
	var order []int
	nextID := 0
	var spawn func(id, depth int)
	spawn = func(id, depth int) {
		// Half the events fire now (or in the past, clamped to now) so
		// equal-timestamp FIFO (the now-queue path) is exercised as
		// hard as the time heap.
		delay := -Time(mix(seed, int64(id), 2) % 3)
		if mix(seed, int64(id), 1)%2 == 0 {
			delay = Time(mix(seed, int64(id), 2) % 40)
		}
		s.at(s.currentTime()+delay, func() {
			order = append(order, id)
			if depth < 4 {
				n := int(mix(seed, int64(id), 3) % 3)
				for k := 0; k < n; k++ {
					cid := nextID
					nextID++
					spawn(cid, depth+1)
				}
			}
		})
	}
	for i := 0; i < roots; i++ {
		cid := nextID
		nextID++
		spawn(cid, 0)
	}
	s.run()
	return order, s.currentTime()
}

func TestQueueMatchesReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		gotOrder, gotNow := playScript(simSched{NewEngine()}, seed, 30)
		wantOrder, wantNow := playScript(refSched{&refEngine{}}, seed, 30)
		if len(gotOrder) != len(wantOrder) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(gotOrder), len(wantOrder))
		}
		for i := range wantOrder {
			if gotOrder[i] != wantOrder[i] {
				t.Fatalf("seed %d: firing order diverges at %d: engine %v vs reference %v",
					seed, i, gotOrder[i], wantOrder[i])
			}
		}
		if gotNow != wantNow {
			t.Fatalf("seed %d: final clock %v, reference %v", seed, gotNow, wantNow)
		}
	}
}

// --- queue storage ---

// TestPoolSteadyState: a long Sleep/Signal run must keep the heap and
// the now-queue ring at their steady-state capacity (reusing vacated
// entries, not growing).
func TestPoolSteadyState(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	const rounds = 10_000
	e.Spawn("pong", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			c.Wait(p)
		}
	})
	e.Spawn("ping", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			c.Signal()
			p.Sleep(1)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if h, r := cap(e.heap), len(e.nowq); h > 16 || r > 64 {
		t.Fatalf("queue grew to %d heap and %d ring entries over %d rounds; reuse is broken", h, r, rounds)
	}
}

// staleEntries counts the entries outside the live heap and the live
// part of the now-queue ring that still hold a callback or a wakeup.
func staleEntries(e *Engine) int {
	n := 0
	for _, h := range e.heap[len(e.heap):cap(e.heap)] {
		if h.fn != nil || h.wake != nil {
			n++
		}
	}
	for i, q := range e.nowq {
		live := (i-int(e.nowHead))&(len(e.nowq)-1) < int(e.nowLen)
		if !live && (q.fn != nil || q.wake != nil) {
			n++
		}
	}
	return n
}

// TestPopsClearVacatedEntries: once Run returns, no heap or ring entry
// may keep a callback or a process alive, on a plain engine and on
// every group engine of a coupled one (whose heaps start in the group
// records).
func TestPopsClearVacatedEntries(t *testing.T) {
	churn := func(e *Engine, procs int, defer1 func(p *Proc)) {
		c := NewCond(e)
		for i := 0; i < procs; i++ {
			e.Spawn("churn", func(p *Proc) {
				for k := 0; k < 20; k++ {
					e.At(p.Now()+Time(k%3), func() { c.Broadcast() })
					p.Sleep(Time((i + k) % 4))
					if defer1 != nil {
						defer1(p)
					}
				}
			})
		}
	}
	check := func(name string, e *Engine) {
		t.Helper()
		if cap(e.heap) == 0 || len(e.nowq) == 0 {
			t.Fatalf("%s: heap capacity %d, ring %d: the run left a queue unused", name, cap(e.heap), len(e.nowq))
		}
		if n := staleEntries(e); n != 0 {
			t.Fatalf("%s: %d vacated queue entries still hold an event", name, n)
		}
	}
	e := NewEngine()
	churn(e, 8, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	check("engine", e)

	groupOf := []int{0, 0, 1, 1, 2, 2}
	ce, err := NewCoupled(groupOf, Microsecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	for r := range groupOf {
		churn(ce.EngineOf(r), 3, func(p *Proc) {
			dst := (r + 2) % len(groupOf)
			ce.Defer(r, p.Now(), func() { ce.At(dst, p.Now()+Microsecond, func() {}) })
		})
	}
	if err := ce.Run(); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < ce.Groups(); g++ {
		check(fmt.Sprintf("group %d", g), ce.Sub(g))
	}
}

// TestCondFIFOCompaction: a Cond whose queue never fully drains must
// still wake strictly in arrival order across front compactions. 100
// procs each wait three times; a signaler wakes them one at a time
// (each woken proc re-waits, so the queue stays long and head climbs
// until head*2 >= len forces a compaction), then broadcasts until all
// have finished, so a lost waiter ends the run in a deadlock. The wake
// order must equal the order of Wait calls.
func TestCondFIFOCompaction(t *testing.T) {
	const procs, waits, signals = 100, 3, 150
	e := NewEngine()
	c := NewCond(e)
	var arrived, woke []int
	done := 0
	for i := 0; i < procs; i++ {
		e.Spawn("w", func(p *Proc) {
			for k := 0; k < waits; k++ {
				arrived = append(arrived, i)
				c.Wait(p)
				woke = append(woke, i)
			}
			done++
		})
	}
	compacted := false
	e.Spawn("signaler", func(p *Proc) {
		p.Sleep(1)
		for k := 0; k < signals; k++ {
			c.Signal()
			p.Sleep(1)
			if c.head == 0 && len(c.waiters) > 0 {
				compacted = true
			}
		}
		for k := 0; k < waits && done < procs; k++ {
			c.Broadcast()
			p.Sleep(1)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !compacted {
		t.Fatal("the queue was never compacted while non-empty")
	}
	if len(woke) != procs*waits || len(arrived) != procs*waits {
		t.Fatalf("%d wakes of %d waits, want %d", len(woke), len(arrived), procs*waits)
	}
	for i := range arrived {
		if woke[i] != arrived[i] {
			t.Fatalf("wake %d went to proc %d, FIFO order says proc %d", i, woke[i], arrived[i])
		}
	}
}
