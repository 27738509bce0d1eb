package comm_test

import (
	"testing"

	"msgroofline/internal/comm"
	"msgroofline/internal/hashtable"
	"msgroofline/internal/machine"
	"msgroofline/internal/netsim"
	"msgroofline/internal/sim"
	"msgroofline/internal/spmat"
	"msgroofline/internal/sptrsv"
	"msgroofline/internal/stencil"
)

// TestNotifiedMatchesParent pins the notified-access stack's simulated
// time and event-order digest on the three workloads, on a small CPU
// machine without faults and on the generated dragonfly under drops
// and latency spikes at two window workers. The values were recorded
// when notified access was a flavour of the MPI window stack, before
// it moved onto the shmem PGAS core as its fourth issue path; the move
// left every one of them unchanged.
func TestNotifiedMatchesParent(t *testing.T) {
	faults := func() *netsim.Faults {
		return &netsim.Faults{Seed: 3, DropProb: 0.1, SpikeProb: 0.3, MaxSpike: 3 * sim.Microsecond}
	}
	type run func() (sim.Time, uint64, error)
	stencilRun := func(m *machine.Config, f *netsim.Faults, shards int) run {
		return func() (sim.Time, uint64, error) {
			r, err := stencil.Run(stencil.Config{Machine: m, Transport: comm.Notified,
				Grid: 64, Iters: 5, PX: 4, PY: 2, Verify: true, Faults: f, Shards: shards})
			if err != nil {
				return 0, 0, err
			}
			return r.Elapsed, r.EventDigest, nil
		}
	}
	sptrsvRun := func(m *machine.Config, p spmat.Params, ranks int, f *netsim.Faults, shards int) run {
		return func() (sim.Time, uint64, error) {
			mat, err := spmat.Generate(p)
			if err != nil {
				return 0, 0, err
			}
			r, err := sptrsv.Run(sptrsv.Config{Machine: m, Transport: comm.Notified,
				Matrix: mat, Ranks: ranks, Faults: f, Shards: shards})
			if err != nil {
				return 0, 0, err
			}
			return r.Elapsed, r.EventDigest, nil
		}
	}
	hashRun := func(m *machine.Config, ranks int, f *netsim.Faults, shards int) run {
		return func() (sim.Time, uint64, error) {
			r, err := hashtable.Run(hashtable.Config{Machine: m, Transport: comm.Notified,
				Ranks: ranks, TotalInserts: 800, Faults: f, Shards: shards})
			if err != nil {
				return 0, 0, err
			}
			return r.Elapsed, r.EventDigest, nil
		}
	}
	pm, df := machine.PerlmutterCPU, machine.Dragonfly1K
	cases := []struct {
		name    string
		run     run
		elapsed sim.Time
		digest  uint64
	}{
		{"perlmutter-cpu/stencil", stencilRun(pm, nil, 1), 18616500, 0xa46657d83b1e7253},
		{"perlmutter-cpu/sptrsv", sptrsvRun(pm, spmat.Params{N: 2400, MeanSnode: 24, Fill: 1, Seed: 20230901}, 16, nil, 1), 129322250, 0x6345313bb2b7de0b},
		{"perlmutter-cpu/hashtable", hashRun(pm, 4, nil, 1), 896100000, 0xe30da77feba655fd},
		{"dragonfly-1k/stencil", stencilRun(df, faults(), 2), 31757642, 0x8914899717ef493c},
		{"dragonfly-1k/sptrsv", sptrsvRun(df, spmat.Params{N: 600, MeanSnode: 12, Fill: 1, Seed: 7}, 8, faults(), 2), 65143103, 0x3c244f4b7946068c},
		{"dragonfly-1k/hashtable", hashRun(df, 16, faults(), 2), 343590000, 0x9d33539cc9fe08c6},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			elapsed, digest, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if elapsed != c.elapsed || digest != c.digest {
				t.Fatalf("elapsed %v (%d ps), digest %#016x; want %v (%d ps), %#016x",
					elapsed, int64(elapsed), digest, c.elapsed, int64(c.elapsed), c.digest)
			}
		})
	}
}
