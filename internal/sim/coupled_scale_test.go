package sim

// White-box tests for the window-engine scaling internals: the 4-ary
// tournament min-tree that replaces the per-window O(G) NextAt scan,
// the workers' run sort (sortRun) against the comparison sort, and the
// property that the barrier, which merges the workers' sorted runs,
// applies deferred ops in exactly the order of a full sort of every
// group's ops.

import (
	"fmt"
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

// genSpecs builds a randomized batch of n op specs with at drawn from
// [0, span): a small span makes same-time ties common, so only the
// sender-counter key breaks them.
func genSpecs(rng *rand.Rand, ranks, n int, span int64) []opSpec {
	specs := make([]opSpec, n)
	for i := range specs {
		specs[i] = opSpec{id: i, rank: rng.Intn(ranks), at: Time(rng.Int63n(span))}
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
// runs included) and every run sorted by sortRun, as its worker does.
// Seeds 0-39 make 2-41 ops, below radixMin; seeds 40-51 make 300-2300
// ops over at spans up to 2^45 ps, so their runs at W = 1 and 2 mostly
// take the radix path.
func TestCoupledMergeMatchesFullSort(t *testing.T) {
	emptyRuns, merged, radixRuns := 0, 0, 0
	for seed := int64(0); seed < 52; seed++ {
		groups := 2 + rand.New(rand.NewSource(seed)).Intn(8)
		ranksPerGroup := 1 + rand.New(rand.NewSource(seed^0x5f)).Intn(3)
		groupOf := make([]int, groups*ranksPerGroup)
		for r := range groupOf {
			groupOf[r] = r % groups
		}
		rng := rand.New(rand.NewSource(seed))
		n, span := 2+rng.Intn(40), int64(6)
		if seed >= 40 {
			n, span = 300+rng.Intn(2000), []int64{6, 1 << 21, 1 << 45}[seed%3]
		}
		specs := genSpecs(rng, len(groupOf), n, span)
		build := func(w int, split *rand.Rand) (*CoupledEngine, *[]int) {
			ce, err := NewCoupled(groupOf, Microsecond, 1)
			if err != nil {
				t.Fatal(err)
			}
			ce.tree.init(groups) // the barrier publishes through it
			ce.runs = make([]opRun, w)
			ce.spare = make([][]deferredOp, w)
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
			for i, r := range got.runs {
				if len(r.ops) >= radixMin {
					radixRuns++
				}
				got.sortRun(i)
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
	if emptyRuns == 0 || merged == 0 || radixRuns == 0 {
		t.Fatalf("%d empty runs, %d merges of several runs, %d radix-sorted runs: the split exercised too little",
			emptyRuns, merged, radixRuns)
	}
}

// genRun builds a run the way a worker fills it: groups in ascending
// order, each deferring a stretch of ops from its ranks (perGroup
// consecutive ids among those drawn from [0, rankHi), interleaved),
// each rank's ops in counter order. at is base plus a draw from
// [0, span], rounded down to one of about 8 values when ties is set.
func genRun(rng *rand.Rand, n, perGroup int, rankHi int64, base, span Time, ties bool) []deferredOp {
	ranks := make([]uint64, 0, n)
	for range n {
		ranks = append(ranks, uint64(rng.Int63n(rankHi)))
	}
	ranks = append(ranks, uint64(rankHi-1))
	slices.Sort(ranks)
	ranks = slices.Compact(ranks)
	counter := map[uint64]uint64{}
	ops := make([]deferredOp, 0, n)
	for len(ops) < n {
		lo := rng.Intn(len(ranks))
		group := ranks[lo:min(lo+perGroup, len(ranks))]
		ranks = ranks[lo:] // later groups start no lower
		for k := 1 + rng.Intn(8); k > 0 && len(ops) < n; k-- {
			r := group[rng.Intn(len(group))]
			at := Time(rng.Int63n(int64(span) + 1))
			if ties {
				at = at / (span/8 + 1) * (span/8 + 1)
			}
			ops = append(ops, deferredOp{at: base + at, key: r<<counterBits | counter[r]})
			counter[r]++
		}
	}
	return ops
}

// TestCoupledRunSortMatchesComparisonSort checks sortRun, the sort
// each worker applies to its run, against slices.SortFunc with cmpOps
// on runs of 0 to 5000 ops on both sides of radixMin: single-rank and
// interleaved four-rank groups, at spans of 0, under 2^11, 2^21 and
// 2^41 ps, with and without heavy ties, rank ids up to maxRanks-1. One
// engine sorts every case, so its spare buffer is reused across sizes.
// As a mutation check, the same comparison must fail for a sort that
// drops the rank digits: sortRun on the ops with their rank ids
// cleared, which orders them by at alone, stably.
func TestCoupledRunSortMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ce := &CoupledEngine{runs: make([]opRun, 1), spare: make([][]deferredOp, 1)}
	sizes := []int{0, 1, 2, radixMin - 1, radixMin, radixMin + 1, 1000, 5000}
	spans := []Time{0, 1<<11 - 1, 1 << 21, 1 << 41}
	cases, radix, caught := 0, 0, 0
	for _, n := range sizes {
		for _, perGroup := range []int{1, 4} {
			for _, span := range spans {
				for _, ties := range []bool{false, true} {
					for _, rankHi := range []int64{int64(2*n + 8), maxRanks} {
						name := fmt.Sprintf("n=%d/group=%d/span=%d/ties=%v/ranks<%d", n, perGroup, span, ties, rankHi)
						ops := genRun(rng, n, perGroup, rankHi, Time(rng.Int63n(1<<50)), span, ties)
						want := slices.Clone(ops)
						slices.SortFunc(want, cmpOps)
						same := func(got []deferredOp, mask uint64) bool {
							return slices.EqualFunc(got, want, func(a, b deferredOp) bool {
								return a.at == b.at && a.key&mask == b.key&mask
							})
						}
						ce.runs[0].ops = append(ce.runs[0].ops[:0], ops...)
						ce.sortRun(0)
						if !same(ce.runs[0].ops, ^uint64(0)) {
							t.Fatalf("%s: sortRun order differs from the comparison sort", name)
						}
						cases++
						if n < radixMin {
							continue
						}
						radix++
						for i := range ops {
							ops[i].key &= counterMask
						}
						ce.runs[0].ops = append(ce.runs[0].ops[:0], ops...)
						ce.sortRun(0)
						if !same(ce.runs[0].ops, counterMask) {
							caught++
						}
					}
				}
			}
		}
	}
	if radix == 0 || caught == 0 {
		t.Fatalf("%d cases, %d on the radix path: dropping the rank digits went unnoticed in %d", cases, radix, radix-caught)
	}
}

// TestCoupledRunSortAllocatesNothing pins the steady state of the radix
// path: once a worker's spare buffer has grown to its run, sorting a
// warm run of interleaved ranks above radixMin allocates nothing.
func TestCoupledRunSortAllocatesNothing(t *testing.T) {
	ops := genRun(rand.New(rand.NewSource(3)), 2000, 4, 4000, 0, 1<<21, false)
	ce := &CoupledEngine{runs: make([]opRun, 1), spare: make([][]deferredOp, 1)}
	fill := func() {
		ce.runs[0].ops = append(ce.runs[0].ops[:0], ops...)
		ce.sortRun(0)
	}
	fill()
	if n := testing.AllocsPerRun(20, fill); n != 0 {
		t.Fatalf("a warm %d-op run sort made %v allocations, want 0", len(ops), n)
	}
}

// BenchmarkEngineRunSort measures sortRun on one worker's run shaped
// like phold-100k's: single-rank groups in ascending order, one op
// each, at random in a 2 µs window. n = 64 takes the comparison sort
// (below radixMin), 1024 and 19000 (a phold-100k run at two workers)
// the radix path. Each iteration sorts one op's share, so ns/op is per
// op; the warm spare buffer keeps it at 0 allocs/op.
func BenchmarkEngineRunSort(b *testing.B) {
	for _, n := range []int{64, 1024, 19000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			ops := make([]deferredOp, n)
			for i := range ops {
				ops[i] = deferredOp{at: Time(rng.Int63n(2_000_000)), key: uint64(5*i) << counterBits}
			}
			ce := &CoupledEngine{runs: make([]opRun, 1), spare: make([][]deferredOp, 1)}
			fill := func() {
				ce.runs[0].ops = append(ce.runs[0].ops[:0], ops...)
				ce.sortRun(0)
			}
			fill()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += n {
				fill()
			}
		})
	}
}
