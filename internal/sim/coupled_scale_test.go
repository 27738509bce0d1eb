package sim

// White-box tests for the window-engine scaling internals: the 4-ary
// tournament min-tree that replaces the per-window O(G) NextAt scan,
// and the property that the barrier, which merges the workers' sorted
// runs and then gathers only candidate groups' follow-ups, applies
// deferred ops in exactly the order a barrier scanning every group
// does.

import (
	"math/rand"
	"slices"
	"testing"
)

func TestMinTreeBasics(t *testing.T) {
	var tr minTree
	tr.init(5) // pads to 16 leaves: ghosts must never surface
	if tr.min() != timeMax {
		t.Fatalf("empty tree min = %v", tr.min())
	}
	tr.update(3, 70)
	tr.update(0, 90)
	tr.update(4, 80)
	if tr.min() != 70 {
		t.Fatalf("min = %v, want 70", tr.min())
	}
	if got := tr.get(3); got != 70 {
		t.Fatalf("get(3) = %v", got)
	}
	// Raising the current minimum must re-min through siblings.
	tr.update(3, 95)
	if tr.min() != 80 {
		t.Fatalf("min after raise = %v, want 80", tr.min())
	}
	// collect enumerates ascending group order, strictly below w1.
	got := tr.collect(91, nil)
	want := []int32{0, 4}
	if !slices.Equal(got, want) {
		t.Fatalf("collect(91) = %v, want %v", got, want)
	}
	// Boundary: a horizon equal to w1 is not active.
	if got := tr.collect(80, nil); !slices.Equal(got, []int32{}) && got != nil {
		t.Fatalf("collect(80) = %v, want empty", got)
	}
	// Idle transition removes a group from every future active set.
	tr.update(0, timeMax)
	tr.update(4, timeMax)
	tr.update(3, timeMax)
	if tr.min() != timeMax {
		t.Fatalf("all-idle min = %v", tr.min())
	}
	if got := tr.collect(timeMax, nil); len(got) != 0 {
		t.Fatalf("all-idle collect = %v", got)
	}
}

func TestMinTreeRandomizedAgainstScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(70)
		var tr minTree
		tr.init(n)
		ref := make([]Time, n)
		for i := range ref {
			ref[i] = timeMax
		}
		for step := 0; step < 200; step++ {
			g := rng.Intn(n)
			var at Time
			if rng.Intn(5) == 0 {
				at = timeMax
			} else {
				at = Time(rng.Intn(1000))
			}
			tr.update(g, at)
			ref[g] = at
			min := timeMax
			for _, v := range ref {
				if v < min {
					min = v
				}
			}
			if tr.min() != min {
				t.Fatalf("n=%d step=%d: tree min %v, scan min %v", n, step, tr.min(), min)
			}
			w1 := Time(rng.Intn(1200))
			var want []int32
			for i, v := range ref {
				if v < w1 {
					want = append(want, int32(i))
				}
			}
			got := tr.collect(w1, nil)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d step=%d: collect(%v) = %v, want %v", n, step, w1, got, want)
			}
		}
	}
}

// opSpec is a pregenerated deferred-op shape: who defers it, when it
// fires, and which follow-up ops its execution defers from the barrier
// itself. Specs are instantiated separately per engine so the barrier
// and the reference all-groups barrier run identical workloads.
type opSpec struct {
	id       int
	rank     int
	at       Time
	children []*opSpec
}

// genSpecs builds a randomized batch of root op specs with occasional
// barrier-emitted children (and grandchildren), using small at ranges
// so same-time ties are common and only the sender-counter key breaks
// them. Root ops come from ranks [0, roots), children from any rank.
func genSpecs(rng *rand.Rand, ranks, roots int, next *int, depth int) []*opSpec {
	count, senders := rng.Intn(12), ranks
	if depth == 0 {
		count, senders = 2+rng.Intn(40), roots
	}
	specs := make([]*opSpec, count)
	for i := range specs {
		s := &opSpec{id: *next, rank: rng.Intn(senders), at: Time(rng.Intn(6))}
		*next++
		if depth < 2 && rng.Intn(4) == 0 {
			s.children = genSpecs(rng, ranks, roots, next, depth+1)
		}
		specs[i] = s
	}
	return specs
}

// instantiate turns a spec tree into live Defer calls on ce, recording
// execution order into log.
func instantiate(ce *CoupledEngine, s *opSpec, log *[]int) func() {
	return func() {
		*log = append(*log, s.id)
		for _, c := range s.children {
			ce.Defer(c.rank, c.at, instantiate(ce, c, log))
		}
	}
}

// refApplyDeferred is the reference barrier: flatten every group's
// ops, not only the candidates', full-sort by (at, key), execute,
// repeat until no op remains.
func refApplyDeferred(ce *CoupledEngine) {
	var batch []deferredOp
	for {
		batch = batch[:0]
		for g := range ce.groups {
			gr := &ce.groups[g]
			batch = append(batch, gr.mailbox...)
			gr.mailbox = gr.mailbox[:0]
		}
		if len(batch) == 0 {
			return
		}
		slices.SortFunc(batch, func(a, b deferredOp) int {
			switch {
			case a.at != b.at:
				if a.at < b.at {
					return -1
				}
				return 1
			case a.key < b.key:
				return -1
			case a.key > b.key:
				return 1
			}
			return 0
		})
		for i := range batch {
			batch[i].run()
		}
	}
}

// TestCoupledMergeMatchesFullSort is the barrier-equivalence property:
// over randomized op batches (including barrier-emitted follow-ups,
// which arrive unsorted), the barrier must execute ops in
// byte-identical order to the reference barrier that full-sorts every
// group. The window's mailboxes reach the barrier the way the workers
// leave them: each active group's ops moved into one of W runs (W = 1
// to 4, the group-to-run split drawn at random, empty runs included)
// and every run sorted. Each seed runs twice: with every group active,
// and with only group 0 active, so follow-ups deferred on groups
// outside the window's active set must still be found.
func TestCoupledMergeMatchesFullSort(t *testing.T) {
	outside := 0 // follow-ups deferred on a group outside the active set
	emptyRuns, merged := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		groups := 2 + rand.New(rand.NewSource(seed)).Intn(8)
		ranksPerGroup := 1 + rand.New(rand.NewSource(seed^0x5f)).Intn(3)
		groupOf := make([]int, groups*ranksPerGroup)
		for r := range groupOf {
			groupOf[r] = r % groups
		}
		for _, narrow := range []bool{false, true} {
			// Rank r sits in group r%groups, so roots from rank 0 alone
			// make group 0 the only active group.
			roots, active := len(groupOf), groups
			if narrow {
				roots, active = 1, 1
			}
			build := func() (*CoupledEngine, *[]int, []*opSpec) {
				ce, err := NewCoupled(groupOf, Microsecond, 1)
				if err != nil {
					t.Fatal(err)
				}
				ce.tree.init(groups) // the barrier publishes through it
				var log []int
				rng := rand.New(rand.NewSource(seed))
				var next int
				specs := genSpecs(rng, len(groupOf), roots, &next, 0)
				for _, s := range specs {
					ce.Defer(s.rank, s.at, instantiate(ce, s, &log))
				}
				return ce, &log, specs
			}

			ref, refLog, specs := build()
			refApplyDeferred(ref)
			if len(*refLog) == 0 {
				t.Fatalf("seed %d narrow=%v: degenerate batch, no ops executed", seed, narrow)
			}
			for w := 1; w <= 4; w++ {
				got, gotLog, _ := build()
				got.runs = make([][]deferredOp, w)
				split := rand.New(rand.NewSource(seed*4 + int64(w)))
				for g := 0; g < active; g++ {
					got.take(split.Intn(w), int32(g))
				}
				nonEmpty := 0
				for _, r := range got.runs {
					sortOps(r)
					if len(r) == 0 {
						emptyRuns++
					} else {
						nonEmpty++
					}
				}
				if nonEmpty > 1 {
					merged++
				}
				if err := got.applyDeferred(); err != nil {
					t.Fatalf("seed %d narrow=%v W=%d: applyDeferred: %v", seed, narrow, w, err)
				}
				if !slices.Equal(*gotLog, *refLog) {
					t.Fatalf("seed %d narrow=%v W=%d: barrier order %v != full-sort order %v",
						seed, narrow, w, *gotLog, *refLog)
				}
			}
			if narrow {
				outside += countOutside(specs, groups, active)
			}
		}
	}
	if outside == 0 {
		t.Fatal("no follow-up was deferred on a group outside the active set")
	}
	if emptyRuns == 0 || merged == 0 {
		t.Fatalf("%d empty runs, %d merges of several runs: the split exercised too little", emptyRuns, merged)
	}
}

// countOutside counts the barrier-emitted follow-ups in a spec tree
// whose sender's group (rank % groups) is not below active.
func countOutside(specs []*opSpec, groups, active int) int {
	n := 0
	for _, s := range specs {
		for _, c := range s.children {
			if c.rank%groups >= active {
				n++
			}
		}
		n += countOutside(s.children, groups, active)
	}
	return n
}
