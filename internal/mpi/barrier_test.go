package mpi

import (
	"testing"

	"msgroofline/internal/machine"
	"msgroofline/internal/netsim"
	"msgroofline/internal/sim"
)

// barrierUnderFaults runs three back-to-back barriers on 8 ranks of
// dragonfly-1k, one fabric node and node group each, with latency
// spikes and drops, so a round signal of one barrier can land after
// the same sender's signal of the next. Ranks enter the first barrier
// skewed. It returns each rank's entry and exit time per barrier and
// the run's digest.
func barrierUnderFaults(t *testing.T, seed uint64, shards int) (enter, exit [3][]sim.Time, digest uint64) {
	t.Helper()
	cfg, err := machine.Get("dragonfly-1k")
	if err != nil {
		t.Fatal(err)
	}
	const ranks = 8
	c, err := NewCommSharded(cfg, ranks, shards)
	if err != nil {
		t.Fatal(err)
	}
	if g := c.World().Groups(); g < 2 {
		t.Fatalf("%d node groups, want 2 or more", g)
	}
	c.World().Inst.Net.SetFaults(&netsim.Faults{Seed: seed, DropProb: 0.1, SpikeProb: 0.5, MaxSpike: 60 * sim.Microsecond})
	for b := range enter {
		enter[b], exit[b] = make([]sim.Time, ranks), make([]sim.Time, ranks)
	}
	err = c.Launch(func(r *Rank) {
		r.Compute(sim.Time(r.Rank()*3) * sim.Microsecond)
		for b := range enter {
			enter[b][r.Rank()] = r.Now()
			r.Barrier()
			exit[b][r.Rank()] = r.Now()
		}
	})
	if err != nil {
		t.Fatalf("seed %d, shards %d: %v", seed, shards, err)
	}
	return enter, exit, c.Digest()
}

// TestBarrierUnderFaults checks that no rank leaves a barrier before
// the last rank entered it, although faults reorder round signals
// across barriers, and that the run does not depend on the worker
// count. A round must count its signals up to the barrier's
// generation: one that leaves as soon as any signal has landed
// (count > 0) lets barrier 2 pass on barrier 1's signal, and a rank
// then leaves before a skewed rank entered.
func TestBarrierUnderFaults(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		enter, exit, d1 := barrierUnderFaults(t, seed, 1)
		for b := range enter {
			last, first := enter[b][0], exit[b][0]
			for r := range enter[b] {
				last, first = max(last, enter[b][r]), min(first, exit[b][r])
			}
			if first < last {
				t.Errorf("seed %d barrier %d: a rank left at %v, before the last entered at %v", seed, b, first, last)
			}
		}
		if _, _, d2 := barrierUnderFaults(t, seed, 2); d1 != d2 {
			t.Errorf("seed %d: digest %016x at shards 1, %016x at shards 2", seed, d1, d2)
		}
	}
}

// TestBarrierMakesNoTwoSidedState checks that barriers stay off the
// two-sided message path: a run of barriers alone never makes a rank's
// per-peer send sequence map or receive resequencer map.
func TestBarrierMakesNoTwoSidedState(t *testing.T) {
	const ranks = 16
	c := newComm(t, "perlmutter-cpu", ranks)
	err := c.Launch(func(r *Rank) {
		for i := 0; i < 3; i++ {
			r.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range c.ranks {
		if r.sendSeq != nil || r.recv != nil {
			t.Errorf("rank %d made its per-peer maps (%d send, %d receive peers)", r.id, len(r.sendSeq), len(r.recv))
		}
	}
}
