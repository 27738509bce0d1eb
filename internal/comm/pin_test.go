package comm_test

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"msgroofline/internal/comm"
	"msgroofline/internal/hashtable"
	"msgroofline/internal/machine"
	"msgroofline/internal/netsim"
	"msgroofline/internal/runtime"
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
			Grid: 64, Iters: 5, PX: 4, PY: 2, Verify: true, Chaos: runtime.Chaos{Faults: f}, Shards: shards})
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
			Matrix: mat, Ranks: ranks, Chaos: runtime.Chaos{Faults: f}, Shards: shards})
		if err != nil {
			return 0, 0, err
		}
		return r.Elapsed, r.EventDigest, nil
	}
}

func hashPin(kind comm.Kind, m *machine.Config, ranks int, f *netsim.Faults, shards int) pinRun {
	return func() (sim.Time, uint64, error) {
		r, err := hashtable.Run(hashtable.Config{Machine: m, Transport: kind,
			Ranks: ranks, TotalInserts: 800, Chaos: runtime.Chaos{Faults: f}, Shards: shards})
		if err != nil {
			return 0, 0, err
		}
		return r.Elapsed, r.EventDigest, nil
	}
}

// pinCase is one pinned run. Its ledger line in results/pins.txt is
// named by the test's prefix and the case name up to any "/shards"
// suffix, so a workload's runs at one and two window workers share one
// line.
type pinCase struct {
	name string
	run  pinRun
}

// checkPins runs each case as a subtest against its ledger line. It
// also fails on a ledger line under prefix that no case runs, and
// prints every differing line as it now reads, in one block, ready to
// paste into the ledger when a change moves pins on purpose.
func checkPins(t *testing.T, prefix string, cases []pinCase) {
	b, err := os.ReadFile("../../results/pins.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) > 0 && strings.HasPrefix(f[0], prefix) {
			want[f[0]] = strings.Join(f, " ")
		}
	}
	var block []string
	ran := map[string]bool{}
	for _, c := range cases {
		name, _, _ := strings.Cut(prefix+c.name, "/shards")
		t.Run(c.name, func(t *testing.T) {
			elapsed, digest, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%s %d - %016x", name, int64(elapsed), digest); got != want[name] {
				t.Errorf("results/pins.txt has %q, the run gives %q", want[name], got)
				if !slices.Contains(block, got) {
					block = append(block, got)
				}
			}
		})
		ran[name] = true
	}
	for name := range want {
		if !ran[name] {
			t.Errorf("results/pins.txt: line %q names no case", name)
		}
	}
	if len(block) > 0 {
		t.Errorf("results/pins.txt's lines now read:\n%s", strings.Join(block, "\n"))
	}
}

// TestNotifiedMatchesParent pins the notified-access stack's simulated
// time and event-order digest on the three workloads, on a small CPU
// machine without faults and on the generated dragonfly under drops
// and latency spikes at two window workers. The values were recorded
// when notified access was a flavour of the MPI window stack, before
// it moved onto the shmem PGAS core as its fourth issue path; the move
// left every one of them unchanged. They are results/pins.txt's
// notified/... lines.
func TestNotifiedMatchesParent(t *testing.T) {
	k, pm, df := comm.Notified, machine.PerlmutterCPU, machine.Dragonfly1K
	checkPins(t, "notified/", []pinCase{
		{"perlmutter-cpu/stencil", stencilPin(k, pm, nil, 1)},
		{"perlmutter-cpu/sptrsv", sptrsvPin(k, pm, spmat.Params{N: 2400, MeanSnode: 24, Fill: 1, Seed: 20230901}, 16, nil, 1)},
		{"perlmutter-cpu/hashtable", hashPin(k, pm, 4, nil, 1)},
		{"dragonfly-1k/stencil", stencilPin(k, df, pinFaults(), 2)},
		{"dragonfly-1k/sptrsv", sptrsvPin(k, df, spmat.Params{N: 600, MeanSnode: 12, Fill: 1, Seed: 7}, 8, pinFaults(), 2)},
		{"dragonfly-1k/hashtable", hashPin(k, df, 16, pinFaults(), 2)},
	})
}

// TestOneSidedMatchesParent pins the strict one-sided stack's simulated
// time and event-order digest on the three workloads: on two CPU
// machines without faults, and on the generated dragonfly under drops
// and latency spikes at one and two window workers. The values were
// recorded when one-sided MPI had its own window implementation in
// internal/mpi, before it moved onto the shmem PGAS core as its fifth
// issue path; the move left every one of them unchanged. They are
// results/pins.txt's one-sided/... lines, one per workload and machine.
func TestOneSidedMatchesParent(t *testing.T) {
	k, pm, su, df := comm.OneSided, machine.PerlmutterCPU, machine.SummitCPU, machine.Dragonfly1K
	big := spmat.Params{N: 2400, MeanSnode: 24, Fill: 1, Seed: 20230901}
	small := spmat.Params{N: 600, MeanSnode: 12, Fill: 1, Seed: 7}
	checkPins(t, "one-sided/", []pinCase{
		{"perlmutter-cpu/stencil", stencilPin(k, pm, nil, 1)},
		{"perlmutter-cpu/sptrsv", sptrsvPin(k, pm, big, 16, nil, 1)},
		{"perlmutter-cpu/hashtable", hashPin(k, pm, 4, nil, 1)},
		{"summit-cpu/stencil", stencilPin(k, su, nil, 1)},
		{"summit-cpu/sptrsv", sptrsvPin(k, su, big, 16, nil, 1)},
		{"summit-cpu/hashtable", hashPin(k, su, 4, nil, 1)},
		{"dragonfly-1k/stencil/shards1", stencilPin(k, df, pinFaults(), 1)},
		{"dragonfly-1k/stencil/shards2", stencilPin(k, df, pinFaults(), 2)},
		{"dragonfly-1k/sptrsv/shards1", sptrsvPin(k, df, small, 8, pinFaults(), 1)},
		{"dragonfly-1k/sptrsv/shards2", sptrsvPin(k, df, small, 8, pinFaults(), 2)},
		{"dragonfly-1k/hashtable/shards1", hashPin(k, df, 16, pinFaults(), 1)},
		{"dragonfly-1k/hashtable/shards2", hashPin(k, df, 16, pinFaults(), 2)},
	})
}
