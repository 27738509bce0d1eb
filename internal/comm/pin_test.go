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

// pinFaults are the drops and latency spikes of the pinned dragonfly
// runs.
func pinFaults() *netsim.Faults {
	return &netsim.Faults{Seed: 3, DropProb: 0.1, SpikeProb: 0.3, MaxSpike: 3 * sim.Microsecond}
}

// pinRun is one workload run; it returns its simulated time and
// event-order digest.
type pinRun func() (sim.Time, uint64, error)

func stencilPin(kind comm.Kind, m *machine.Config, f *netsim.Faults, shards int) pinRun {
	return func() (sim.Time, uint64, error) {
		r, err := stencil.Run(stencil.Config{Machine: m, Transport: kind,
			Grid: 64, Iters: 5, PX: 4, PY: 2, Verify: true, Faults: f, Shards: shards})
		if err != nil {
			return 0, 0, err
		}
		return r.Elapsed, r.EventDigest, nil
	}
}

func sptrsvPin(kind comm.Kind, m *machine.Config, p spmat.Params, ranks int, f *netsim.Faults, shards int) pinRun {
	return func() (sim.Time, uint64, error) {
		mat, err := spmat.Generate(p)
		if err != nil {
			return 0, 0, err
		}
		r, err := sptrsv.Run(sptrsv.Config{Machine: m, Transport: kind,
			Matrix: mat, Ranks: ranks, Faults: f, Shards: shards})
		if err != nil {
			return 0, 0, err
		}
		return r.Elapsed, r.EventDigest, nil
	}
}

func hashPin(kind comm.Kind, m *machine.Config, ranks int, f *netsim.Faults, shards int) pinRun {
	return func() (sim.Time, uint64, error) {
		r, err := hashtable.Run(hashtable.Config{Machine: m, Transport: kind,
			Ranks: ranks, TotalInserts: 800, Faults: f, Shards: shards})
		if err != nil {
			return 0, 0, err
		}
		return r.Elapsed, r.EventDigest, nil
	}
}

// pinCase is one pinned run and the simulated time and digest it must
// reproduce.
type pinCase struct {
	name    string
	run     pinRun
	elapsed sim.Time
	digest  uint64
}

func checkPins(t *testing.T, cases []pinCase) {
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

// TestNotifiedMatchesParent pins the notified-access stack's simulated
// time and event-order digest on the three workloads, on a small CPU
// machine without faults and on the generated dragonfly under drops
// and latency spikes at two window workers. The values were recorded
// when notified access was a flavour of the MPI window stack, before
// it moved onto the shmem PGAS core as its fourth issue path; the move
// left every one of them unchanged.
func TestNotifiedMatchesParent(t *testing.T) {
	k, pm, df := comm.Notified, machine.PerlmutterCPU, machine.Dragonfly1K
	checkPins(t, []pinCase{
		{"perlmutter-cpu/stencil", stencilPin(k, pm, nil, 1), 18616500, 0xa46657d83b1e7253},
		{"perlmutter-cpu/sptrsv", sptrsvPin(k, pm, spmat.Params{N: 2400, MeanSnode: 24, Fill: 1, Seed: 20230901}, 16, nil, 1), 129322250, 0x6345313bb2b7de0b},
		{"perlmutter-cpu/hashtable", hashPin(k, pm, 4, nil, 1), 896100000, 0xe30da77feba655fd},
		{"dragonfly-1k/stencil", stencilPin(k, df, pinFaults(), 2), 31757642, 0x8914899717ef493c},
		{"dragonfly-1k/sptrsv", sptrsvPin(k, df, spmat.Params{N: 600, MeanSnode: 12, Fill: 1, Seed: 7}, 8, pinFaults(), 2), 65143103, 0x3c244f4b7946068c},
		{"dragonfly-1k/hashtable", hashPin(k, df, 16, pinFaults(), 2), 343590000, 0x9d33539cc9fe08c6},
	})
}

// TestOneSidedMatchesParent pins the strict one-sided stack's simulated
// time and event-order digest on the three workloads: on two CPU
// machines without faults, and on the generated dragonfly under drops
// and latency spikes at one and two window workers. The values were
// recorded when one-sided MPI had its own window implementation in
// internal/mpi, before it moved onto the shmem PGAS core as its fifth
// issue path; the move left every one of them unchanged.
func TestOneSidedMatchesParent(t *testing.T) {
	k, pm, su, df := comm.OneSided, machine.PerlmutterCPU, machine.SummitCPU, machine.Dragonfly1K
	big := spmat.Params{N: 2400, MeanSnode: 24, Fill: 1, Seed: 20230901}
	small := spmat.Params{N: 600, MeanSnode: 12, Fill: 1, Seed: 7}
	checkPins(t, []pinCase{
		{"perlmutter-cpu/stencil", stencilPin(k, pm, nil, 1), 64766347, 0xd21c385f81ceccc3},
		{"perlmutter-cpu/sptrsv", sptrsvPin(k, pm, big, 16, nil, 1), 390927682, 0xdee87c7ad34f52ea},
		{"perlmutter-cpu/hashtable", hashPin(k, pm, 4, nil, 1), 869510000, 0xbe565a3472816ee5},
		{"summit-cpu/stencil", stencilPin(k, su, nil, 1), 67354921, 0xd92bfb8b7cb1269b},
		{"summit-cpu/sptrsv", sptrsvPin(k, su, big, 16, nil, 1), 503841121, 0x9e466aad1fd04fbe},
		{"summit-cpu/hashtable", hashPin(k, su, 4, nil, 1), 1398300000, 0x5a00b0c826afb1b5},
		{"dragonfly-1k/stencil/shards1", stencilPin(k, df, pinFaults(), 1), 100096942, 0xfd6f29a5b29408b6},
		{"dragonfly-1k/stencil/shards2", stencilPin(k, df, pinFaults(), 2), 100096942, 0xfd6f29a5b29408b6},
		{"dragonfly-1k/sptrsv/shards1", sptrsvPin(k, df, small, 8, pinFaults(), 1), 261904335, 0xbcbbb489ef759326},
		{"dragonfly-1k/sptrsv/shards2", sptrsvPin(k, df, small, 8, pinFaults(), 2), 261904335, 0xbcbbb489ef759326},
		{"dragonfly-1k/hashtable/shards1", hashPin(k, df, 16, pinFaults(), 1), 344910000, 0xe4eeac313ce8adc4},
		{"dragonfly-1k/hashtable/shards2", hashPin(k, df, 16, pinFaults(), 2), 344910000, 0xe4eeac313ce8adc4},
	})
}
