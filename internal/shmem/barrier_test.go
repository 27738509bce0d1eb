package shmem

import (
	"fmt"
	"testing"

	"msgroofline/internal/machine"
	"msgroofline/internal/mpi"
	"msgroofline/internal/netsim"
	"msgroofline/internal/runtime"
	"msgroofline/internal/sim"
)

// TestBarrierResumesOncePerBarrier runs K back-to-back barriers over P
// ranks that do nothing else and counts the switches into the ranks'
// bodies. A barrier's rounds run as wakeups of the rank's process
// (runtime.Barrier), so a rank resumes at most once per barrier, and
// once more for its spawn: at most P·(K+1) in all, however many rounds
// there are. A barrier that parked its coroutine once per round, for
// its op charges or its signal, would resume about three times per
// round. It covers MPI's barrier under latency spikes and drops,
// SHMEM's barrier on the one-sided issue path, and the GPU barrier,
// whose signals stay in flight until their local half broadcasts the
// PE's quiesced cond. The GPU case calls the barrier itself: the quiet
// that Ctx.Barrier adds before it parks on its own. Every world spans
// node groups, and each count must be the same at 1, 2 and 4 window
// workers.
func TestBarrierResumesOncePerBarrier(t *testing.T) {
	const K = 5
	type world struct {
		w      *runtime.World
		launch func() error
	}
	cases := []struct {
		name    string
		machine string
		ranks   []int
		build   func(t *testing.T, cfg *machine.Config, p, workers int) world
	}{
		{"mpi under faults", "dragonfly-1k", []int{2, 3, 16, 300}, func(t *testing.T, cfg *machine.Config, p, workers int) world {
			c, err := mpi.NewCommSharded(cfg, p, workers)
			if err != nil {
				t.Fatal(err)
			}
			c.World().Inst.Net.SetFaults(&netsim.Faults{Seed: 7, DropProb: 0.1, SpikeProb: 0.5, MaxSpike: 60 * sim.Microsecond})
			return world{c.World(), func() error {
				return c.Launch(func(r *mpi.Rank) {
					for range K {
						r.Barrier()
					}
				})
			}}
		}},
		{"shmem one-sided", "dragonfly-1k", []int{2, 3, 16, 300}, func(t *testing.T, cfg *machine.Config, p, workers int) world {
			j, err := NewJobSharded(cfg, machine.OneSided, p, 64, 0, workers)
			if err != nil {
				t.Fatal(err)
			}
			return world{j.World(), func() error {
				return j.Launch(func(c *Ctx) {
					for range K {
						c.Barrier()
					}
				})
			}}
		}},
		{"shmem gpu", "summit-gpu", []int{2, 3, 6}, func(t *testing.T, cfg *machine.Config, p, workers int) world {
			j, err := NewJobSharded(cfg, machine.GPUShmem, p, 64, 64, workers)
			if err != nil {
				t.Fatal(err)
			}
			return world{j.World(), func() error {
				return j.Launch(func(c *Ctx) {
					for range K {
						c.pe.bar.Wait(c.proc)
					}
				})
			}}
		}},
	}
	for _, tc := range cases {
		cfg, err := machine.Get(tc.machine)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range tc.ranks {
			name := fmt.Sprintf("%s P=%d", tc.name, p)
			var ref uint64
			for _, workers := range []int{1, 2, 4} {
				w := tc.build(t, cfg, p, workers)
				if w.w.Groups() < 2 {
					t.Fatalf("%s: %d node groups, want 2 or more", name, w.w.Groups())
				}
				if err := w.launch(); err != nil {
					t.Fatalf("%s workers=%d: %v", name, workers, err)
				}
				got := w.w.Resumes()
				if workers == 1 {
					ref = got
				} else if got != ref {
					t.Errorf("%s: %d resumes at workers=%d, %d at workers=1", name, got, workers, ref)
				}
				if limit := uint64(p * (K + 1)); got > limit {
					t.Errorf("%s workers=%d: %d resumes, want at most %d", name, workers, got, limit)
				}
			}
			t.Logf("%s: %d resumes", name, ref)
		}
	}
}
