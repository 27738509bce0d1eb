package sim

// White-box tests for the window-engine scaling internals: the 4-ary
// tournament min-tree that replaces the per-window O(G) NextAt scan,
// and the property that the barrier, which merges the workers' sorted
// runs, applies deferred ops in exactly the order of a full sort of
// every group's ops.

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

// opSpec is a pregenerated deferred-op shape: who defers it and when
// it fires. Specs are instantiated separately per engine so the
// barrier and the reference full-sort barrier run identical batches.
type opSpec struct {
	id   int
	rank int
	at   Time
}

// genSpecs builds a randomized batch of op specs, using a small at
// range so same-time ties are common and only the sender-counter key
// breaks them.
func genSpecs(rng *rand.Rand, ranks int) []opSpec {
	specs := make([]opSpec, 2+rng.Intn(40))
	for i := range specs {
		specs[i] = opSpec{id: i, rank: rng.Intn(ranks), at: Time(rng.Intn(6))}
	}
	return specs
}

// refApplyDeferred is the reference barrier: flatten every worker's
// ops, full-sort them by (at, key) and execute them.
func refApplyDeferred(ce *CoupledEngine) {
	var batch []deferredOp
	for w := range ce.runs {
		batch = append(batch, ce.runs[w].ops...)
		ce.runs[w].ops = nil
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

// TestCoupledMergeMatchesFullSort is the barrier-equivalence property:
// over randomized op batches, the barrier must execute ops in exactly
// the order of the reference barrier that full-sorts every group's
// ops. The window's ops reach the barrier the way the workers leave
// them: each group defers into the run of the worker its record names
// (W = 1 to 4 runs, the group-to-worker split drawn at random, empty
// runs included) and every run sorted.
func TestCoupledMergeMatchesFullSort(t *testing.T) {
	emptyRuns, merged := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		groups := 2 + rand.New(rand.NewSource(seed)).Intn(8)
		ranksPerGroup := 1 + rand.New(rand.NewSource(seed^0x5f)).Intn(3)
		groupOf := make([]int, groups*ranksPerGroup)
		for r := range groupOf {
			groupOf[r] = r % groups
		}
		specs := genSpecs(rand.New(rand.NewSource(seed)), len(groupOf))
		build := func(w int, split *rand.Rand) (*CoupledEngine, *[]int) {
			ce, err := NewCoupled(groupOf, Microsecond, 1)
			if err != nil {
				t.Fatal(err)
			}
			ce.tree.init(groups) // the barrier publishes through it
			ce.runs = make([]opRun, w)
			for g := range ce.groups {
				if split != nil {
					ce.groups[g].worker = int32(split.Intn(w))
				}
			}
			var log []int
			for _, s := range specs {
				ce.Defer(s.rank, s.at, func() { log = append(log, s.id) })
			}
			return ce, &log
		}

		ref, refLog := build(1, nil)
		refApplyDeferred(ref)
		if len(*refLog) != len(specs) {
			t.Fatalf("seed %d: reference ran %d of %d ops", seed, len(*refLog), len(specs))
		}
		for w := 1; w <= 4; w++ {
			got, gotLog := build(w, rand.New(rand.NewSource(seed*4+int64(w))))
			nonEmpty := 0
			for _, r := range got.runs {
				sortOps(r.ops)
				if len(r.ops) == 0 {
					emptyRuns++
				} else {
					nonEmpty++
				}
			}
			if nonEmpty > 1 {
				merged++
			}
			if err := got.applyDeferred(); err != nil {
				t.Fatalf("seed %d W=%d: applyDeferred: %v", seed, w, err)
			}
			if !slices.Equal(*gotLog, *refLog) {
				t.Fatalf("seed %d W=%d: barrier order %v != full-sort order %v", seed, w, *gotLog, *refLog)
			}
			for r := range got.runs {
				if n := len(got.runs[r].ops); n != 0 {
					t.Fatalf("seed %d W=%d: run %d holds %d ops after the barrier", seed, w, r, n)
				}
			}
		}
	}
	if emptyRuns == 0 || merged == 0 {
		t.Fatalf("%d empty runs, %d merges of several runs: the split exercised too little", emptyRuns, merged)
	}
}
