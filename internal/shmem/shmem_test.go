package shmem

import (
	"bytes"
	"slices"
	"testing"

	"msgroofline/internal/machine"
	"msgroofline/internal/netsim"
	"msgroofline/internal/sim"
)

func newJob(t *testing.T, name string, npes, heap int) *Job {
	t.Helper()
	cfg, err := machine.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewJob(cfg, npes, heap)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestNewJobRequiresGPU(t *testing.T) {
	cfg, _ := machine.Get("perlmutter-cpu")
	if _, err := NewJob(cfg, 2, 64); err == nil {
		t.Fatal("CPU machine should not offer GPU shmem")
	}
}

// TestNewJobShardedValidation checks that a job is refused unless it
// names a PGAS transport the machine calibrates and a heap whose signal
// words lie inside it.
func TestNewJobShardedValidation(t *testing.T) {
	cpu, _ := machine.Get("perlmutter-cpu")
	gpu, _ := machine.Get("perlmutter-gpu")
	for _, tc := range []struct {
		name          string
		cfg           *machine.Config
		tr            machine.Transport
		heap, sigBase int
	}{
		{"non-PGAS transport", cpu, machine.TwoSided, 64, 64},
		{"signals past the heap", gpu, machine.GPUShmem, 64, 72},
		{"negative signal offset", gpu, machine.GPUShmem, 64, -8},
		{"negative heap size", gpu, machine.GPUShmem, -8, 0},
		{"GPU shmem on a CPU machine", cpu, machine.GPUShmem, 64, 64},
		{"notified access without its parameters", machine.SummitCPU, machine.NotifiedAccess, 64, 32},
	} {
		if _, err := NewJobSharded(tc.cfg, tc.tr, 2, tc.heap, tc.sigBase, 1); err == nil {
			t.Errorf("%s: NewJobSharded accepted it", tc.name)
		}
	}
	for _, tr := range []machine.Transport{machine.StreamTriggered, machine.GPUShmem} {
		if _, err := NewJobSharded(gpu, tr, 2, 64, 32, 1); err != nil {
			t.Errorf("%s on perlmutter-gpu: %v", tr, err)
		}
	}
	for _, tr := range []machine.Transport{machine.MemChannel, machine.NotifiedAccess} {
		if _, err := NewJobSharded(cpu, tr, 2, 64, 32, 1); err != nil {
			t.Errorf("%s on perlmutter-cpu: %v", tr, err)
		}
	}
}

// TestNotifiedAccessIssuePath pins what the notified-access issue path
// charges: a fused put-with-signal costs its issuer exactly two ops and
// a plain put one, and Quiet with a put still in flight neither charges
// an op nor waits for it to land.
func TestNotifiedAccessIssuePath(t *testing.T) {
	cfg := machine.PerlmutterCPU
	tp, _ := cfg.Params(machine.NotifiedAccess)
	if tp.OpOverhead <= 0 {
		t.Fatalf("notified-access op overhead %v, want > 0", tp.OpOverhead)
	}
	j, err := NewJobSharded(cfg, machine.NotifiedAccess, 2, 64, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	var signalCost, putCost, quietCost sim.Time
	inFlight := -1
	err = j.Launch(func(c *Ctx) {
		if c.MyPE() != 0 {
			return
		}
		t0 := c.Now()
		c.PutSignalNBI(1, 0, []byte("fused"), 32, 1)
		t1 := c.Now()
		c.PutNBI(1, 8, []byte("plain"))
		t2 := c.Now()
		c.Quiet()
		signalCost, putCost, quietCost = t1-t0, t2-t1, c.Now()-t2
		inFlight = c.PE().Outstanding()
	})
	if err != nil {
		t.Fatal(err)
	}
	if signalCost != 2*tp.OpOverhead || putCost != tp.OpOverhead {
		t.Errorf("put-with-signal cost %v and put %v, want 2o = %v and o = %v",
			signalCost, putCost, 2*tp.OpOverhead, tp.OpOverhead)
	}
	if quietCost != 0 || inFlight != 2 {
		t.Errorf("Quiet took %v and left %d puts outstanding, want 0s and 2 (no op, no wait)", quietCost, inFlight)
	}
	if got := j.PE(1).View(0, 5); string(got) != "fused" || j.PE(1).Uint64At(32) != 1 {
		t.Errorf("PE 1 reads %q with signal %d after the run", got, j.PE(1).Uint64At(32))
	}
}

func TestPutSignalDelivery(t *testing.T) {
	j := newJob(t, "perlmutter-gpu", 2, 1024)
	payload := []byte("device-initiated")
	err := j.Launch(func(c *Ctx) {
		switch c.MyPE() {
		case 0:
			c.PutSignalNBI(1, 0, payload, 512, 1)
		case 1:
			c.WaitUntilAll([]int{512}, 1)
			if !bytes.Equal(c.PE().Heap()[:len(payload)], payload) {
				t.Error("signal fired before data landed")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPutLatencyCalibration(t *testing.T) {
	// §II: Perlmutter GPU single put-with-signal ~4 us; Summit ~5 us.
	for _, tc := range []struct {
		machine string
		npes    int
		lo, hi  float64
	}{
		{"perlmutter-gpu", 2, 3.5, 4.6},
		{"summit-gpu", 2, 4.4, 5.6},
	} {
		j := newJob(t, tc.machine, tc.npes, 256)
		var elapsed sim.Time
		err := j.Launch(func(c *Ctx) {
			if c.MyPE() == 1 {
				start := c.Now()
				c.WaitUntilAll([]int{128}, 1)
				elapsed = c.Now() - start
			} else {
				c.PutSignalNBI(1, 0, make([]byte, 8), 128, 1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if us := elapsed.Microseconds(); us < tc.lo || us > tc.hi {
			t.Errorf("%s put-with-signal = %.2fus, want [%.1f, %.1f]", tc.machine, us, tc.lo, tc.hi)
		}
	}
}

func TestWaitUntilAny(t *testing.T) {
	j := newJob(t, "perlmutter-gpu", 3, 256)
	var order []int
	err := j.Launch(func(c *Ctx) {
		switch c.MyPE() {
		case 0:
			// Receive two messages via wait_until_any + mask.
			sig := []int{0, 8}
			mask := make([]bool, 2)
			for n := 0; n < 2; n++ {
				i := c.WaitUntilAny(sig, mask, 1)
				mask[i] = true
				order = append(order, i)
			}
		case 1:
			c.Compute(sim.FromMicroseconds(20))
			c.PutSignalNBI(0, 100, []byte{1}, 0, 1)
		case 2:
			c.PutSignalNBI(0, 101, []byte{2}, 8, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// PE 2 sends immediately, PE 1 after 20us: slot 1 must fire first.
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Fatalf("order = %v, want [1 0]", order)
	}
}

func TestQuiet(t *testing.T) {
	j := newJob(t, "perlmutter-gpu", 2, 1<<21)
	err := j.Launch(func(c *Ctx) {
		if c.MyPE() == 0 {
			c.PutNBI(1, 0, make([]byte, 1<<20))
			c.Quiet()
			// After quiet, data must be in the remote heap.
			if j.PE(1).Heap()[0] != 0 {
				t.Error("unexpected heap content")
			}
			if got := j.PE(1).Heap()[1<<20-1]; got != 0 {
				t.Error("unexpected tail")
			}
			if p, _ := c.PE().OpStats(); p != 1 {
				t.Errorf("puts = %d", p)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAtomicCompareSwapRace(t *testing.T) {
	// All PEs CAS the same slot; exactly one must win.
	j := newJob(t, "summit-gpu", 6, 64)
	wins := 0
	err := j.Launch(func(c *Ctx) {
		old := c.AtomicCompareSwap(0, 0, 0, uint64(c.MyPE())+1)
		if old == 0 {
			wins++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if wins != 1 {
		t.Fatalf("wins = %d, want exactly 1", wins)
	}
}

func TestAtomicFetchAddExact(t *testing.T) {
	j := newJob(t, "perlmutter-gpu", 4, 64)
	err := j.Launch(func(c *Ctx) {
		for i := 0; i < 10; i++ {
			c.AtomicFetchAdd(0, 8, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := j.PE(0).Uint64At(8); got != 40 {
		t.Fatalf("counter = %d, want 40", got)
	}
}

func TestCASCalibrationCrossSocket(t *testing.T) {
	// Summit GPU: CAS ~1us in-island, ~1.6us across (§III-C).
	measure := func(dst int) float64 {
		j := newJob(t, "summit-gpu", 6, 64)
		var elapsed sim.Time
		if err := j.Launch(func(c *Ctx) {
			if c.MyPE() != 0 {
				return
			}
			start := c.Now()
			c.AtomicCompareSwap(dst, 0, 0, 1)
			elapsed = c.Now() - start
		}); err != nil {
			t.Fatal(err)
		}
		return elapsed.Microseconds()
	}
	in := measure(1)
	cross := measure(3)
	if in < 0.8 || in > 1.2 {
		t.Errorf("in-island CAS = %.2fus, want ~1us", in)
	}
	if cross < 1.4 || cross > 1.9 {
		t.Errorf("cross-island CAS = %.2fus, want ~1.6us", cross)
	}
}

func TestBarrier(t *testing.T) {
	j := newJob(t, "summit-gpu", 6, 64)
	after := make([]sim.Time, 6)
	slow := sim.FromMicroseconds(300)
	err := j.Launch(func(c *Ctx) {
		if c.MyPE() == 4 {
			c.Compute(slow)
		}
		c.Barrier()
		after[c.MyPE()] = c.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	for pe, at := range after {
		if at < slow {
			t.Fatalf("PE %d left barrier at %v before PE 4 arrived", pe, at)
		}
	}
}

func TestRepeatedBarriers(t *testing.T) {
	j := newJob(t, "perlmutter-gpu", 4, 64)
	err := j.Launch(func(c *Ctx) {
		for i := 0; i < 12; i++ {
			c.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// backToBackBarriers runs 4 back-to-back barriers on a 300-PE
// memory-channel world of dragonfly-1k, which has 9 dissemination
// rounds, with a different PE-dependent skew before each and the given
// faults (nil for none) on the fabric. It returns each PE's entry and
// exit time per barrier, the most barrier signals a PE still had in
// flight once the quiet after a barrier returned, and the run's digest.
func backToBackBarriers(t *testing.T, faults *netsim.Faults, shards int) (enter, leave *[4][300]sim.Time, inFlight int, digest uint64) {
	t.Helper()
	cfg, err := machine.Get("dragonfly-1k")
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewJobSharded(cfg, machine.MemChannel, 300, 64, 0, shards)
	if err != nil {
		t.Fatal(err)
	}
	j.World().Inst.Net.SetFaults(faults)
	enter, leave = new([4][300]sim.Time), new([4][300]sim.Time)
	var quiet [300]int // by PE
	err = j.Launch(func(c *Ctx) {
		me := c.MyPE()
		for b := range enter {
			c.Compute(sim.FromNanoseconds(float64((me*37+b*101)%293) * 20))
			enter[b][me] = c.Now()
			c.Barrier()
			leave[b][me] = c.Now()
			c.Quiet()
			quiet[me] = max(quiet[me], c.pe.bar.InFlight())
		}
	})
	if err != nil {
		t.Fatalf("shards %d: %v", shards, err)
	}
	if fs := j.World().Inst.Net.FaultStats(); faults != nil && (fs.Drops == 0 || fs.Spikes == 0) {
		t.Fatalf("shards %d: %d drops and %d spikes, want some of each", shards, fs.Drops, fs.Spikes)
	}
	return enter, leave, slices.Max(quiet[:]), j.Digest()
}

// TestBarrierBackToBackAbove256 runs backToBackBarriers without faults
// and under latency spikes and drops (seeds 1-3), which reorder a PE's
// round signals across barriers, at 1 and 2 shards. Signals of
// consecutive barriers must not collide (slots indexed by barrier and
// round wrap above 256 ranks and deadlock), no PE may leave barrier b
// before the last PE entered it, the quiet after each barrier must
// leave no barrier signal in flight, and both shard counts must give
// one digest.
func TestBarrierBackToBackAbove256(t *testing.T) {
	for seed := uint64(0); seed <= 3; seed++ {
		var faults *netsim.Faults // seed 0 runs without
		if seed > 0 {
			faults = &netsim.Faults{Seed: seed, DropProb: 0.1, SpikeProb: 0.5, MaxSpike: 60 * sim.Microsecond}
		}
		var digests [2]uint64
		for i, shards := range []int{1, 2} {
			enter, leave, inFlight, d := backToBackBarriers(t, faults, shards)
			for b := range enter {
				last := slices.Max(enter[b][:])
				for pe, at := range leave[b] {
					if at < last {
						t.Fatalf("seed %d shards %d barrier %d: PE %d left at %v before the last PE entered at %v", seed, shards, b, pe, at, last)
					}
				}
			}
			if inFlight != 0 {
				t.Errorf("seed %d shards %d: %d barrier signals in flight after a quiet", seed, shards, inFlight)
			}
			digests[i] = d
		}
		if digests[0] != digests[1] {
			t.Errorf("seed %d: digest %016x at shards 1, %016x at shards 2", seed, digests[0], digests[1])
		}
	}
}

func TestForkJoinBlocks(t *testing.T) {
	j := newJob(t, "perlmutter-gpu", 1, 64)
	total := 0
	err := j.Launch(func(c *Ctx) {
		c.ForkJoin(80, func(blk *Ctx, i int) {
			blk.Compute(sim.Microsecond)
			total++
		})
		if total != 80 {
			t.Errorf("ForkJoin returned before all blocks: %d", total)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// 80 blocks of 1us run concurrently: elapsed ~1us, not 80us.
	if j.Elapsed() > sim.FromMicroseconds(5) {
		t.Fatalf("blocks did not run concurrently: %v", j.Elapsed())
	}
}

func TestForkJoinConcurrentComms(t *testing.T) {
	// Blocks issuing puts concurrently spread over channels and beat
	// a serial issue loop.
	j := newJob(t, "perlmutter-gpu", 2, 1<<22)
	err := j.Launch(func(c *Ctx) {
		if c.MyPE() != 0 {
			return
		}
		c.ForkJoin(4, func(blk *Ctx, i int) {
			blk.PutSignalNBICh(1, i*1024, make([]byte, 1024), 1<<22-64+8*i, 1, i)
		})
		c.Quiet()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitMessageSpeedup(t *testing.T) {
	// Fig 10 mechanism at the SHMEM level: 1 MiB as one message vs
	// four 256 KiB messages on distinct channels.
	const size = 1 << 20
	run := func(split bool) sim.Time {
		j := newJob(t, "perlmutter-gpu", 2, 2*size)
		err := j.Launch(func(c *Ctx) {
			if c.MyPE() != 0 {
				return
			}
			if split {
				quarter := size / 4
				for i := 0; i < 4; i++ {
					c.PutSignalNBICh(1, i*quarter, make([]byte, quarter), 2*size-64+8*i, 1, i)
				}
			} else {
				c.PutSignalNBICh(1, 0, make([]byte, size), 2*size-64, 1, 0)
			}
			c.Quiet()
		})
		if err != nil {
			t.Fatal(err)
		}
		return j.Elapsed()
	}
	single, split := run(false), run(true)
	sp := float64(single) / float64(split)
	if sp < 2.3 || sp > 4.0 {
		t.Fatalf("split speedup = %.2f, want ~2.9x (paper Fig 10)", sp)
	}
}

func TestPutBoundsPanic(t *testing.T) {
	j := newJob(t, "perlmutter-gpu", 2, 64)
	err := j.Launch(func(c *Ctx) {
		if c.MyPE() != 0 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		c.PutNBI(1, 60, make([]byte, 8))
	})
	if err != nil {
		t.Fatal(err)
	}
}
