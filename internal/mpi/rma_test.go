package mpi

import (
	"bytes"
	"maps"
	"strings"
	"testing"

	"msgroofline/internal/machine"
	"msgroofline/internal/shmem"
	"msgroofline/internal/sim"
)

// One-sided MPI (MPI-3 RMA) is internal/shmem's OneSided issue path.
// These tests pin its MPI contract there: MPI_Put, MPI_Win_flush,
// MPI_Win_fence and the atomics, each window a PE heap whose signal
// words start at sigBase.

// newRMA builds an n-rank one-sided job on the named machine, every
// rank exposing heap bytes with its signal words from sigBase.
func newRMA(t *testing.T, name string, n, heap, sigBase int) *shmem.Job {
	t.Helper()
	cfg, err := machine.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	j, err := shmem.NewJobSharded(cfg, machine.OneSided, n, heap, sigBase, 1)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestWinCreation(t *testing.T) {
	j := newRMA(t, "perlmutter-cpu", 4, 64, 64)
	if len(j.PE(2).Heap()) != 64 {
		t.Fatal("window size wrong")
	}
	cfg := machine.PerlmutterCPU
	if _, err := shmem.NewJobSharded(cfg, machine.OneSided, 4, -2, 0, 1); err == nil {
		t.Fatal("negative size should fail")
	}
	if _, err := shmem.NewJobSharded(cfg, machine.OneSided, 4, 8, 16, 1); err == nil {
		t.Fatal("signal words past the window should fail")
	}
}

func TestPutFlushVisibility(t *testing.T) {
	j := newRMA(t, "perlmutter-cpu", 2, 16, 16)
	var seen []byte
	err := j.Launch(func(c *shmem.Ctx) {
		if c.MyPE() == 0 {
			c.PutNBI(1, 4, []byte{9, 8, 7})
			c.Flush(1, 0)
			// Flush completed the put remotely; the barrier tells the
			// target. It flushes nothing itself, so the put must have
			// landed before it was entered.
			c.Barrier()
		} else {
			c.Barrier()
			seen = append([]byte{}, c.PE().Heap()[4:7]...)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seen, []byte{9, 8, 7}) {
		t.Fatalf("after flush remote memory = %v", seen)
	}
}

func TestPutWithoutFlushNotYetVisible(t *testing.T) {
	j := newRMA(t, "perlmutter-cpu", 2, 16, 16)
	var immediate byte
	err := j.Launch(func(c *shmem.Ctx) {
		if c.MyPE() == 0 {
			c.PutNBI(1, 0, []byte{5})
			immediate = j.PE(1).View(0, 1)[0] // no flush: still in flight
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if immediate != 0 {
		t.Fatal("put visible before any completion wait — no latency modeled?")
	}
}

func TestFourOpProtocolCalibration(t *testing.T) {
	// The paper's one-sided message: put(data), flush, put(signal),
	// flush — about 5 us on Perlmutter CPU (Fig 6b).
	const sigBase = 1 << 12
	j := newRMA(t, "perlmutter-cpu", 128, sigBase+8, sigBase)
	var elapsed sim.Time
	err := j.Launch(func(c *shmem.Ctx) {
		if c.MyPE() != 0 {
			return
		}
		start := c.Now()
		c.PutNBI(127, 0, make([]byte, 100))
		c.Flush(127, 0)
		c.PutNBI(127, sigBase, []byte{1, 0, 0, 0, 0, 0, 0, 0})
		c.Flush(127, sigBase)
		elapsed = c.Now() - start
	})
	if err != nil {
		t.Fatal(err)
	}
	if us := elapsed.Microseconds(); us < 4.2 || us > 5.8 {
		t.Fatalf("4-op one-sided message = %.2fus, want ~5us", us)
	}
}

func TestFenceEpoch(t *testing.T) {
	// BSP pattern: everyone puts to the right neighbor, fence, read.
	// The fence leaves no put and no barrier signal in flight.
	j := newRMA(t, "perlmutter-cpu", 8, 8, 8)
	got := make([]byte, 8)
	err := j.Launch(func(c *shmem.Ctx) {
		right := (c.MyPE() + 1) % c.NPEs()
		c.PutNBI(right, 0, []byte{byte(c.MyPE() + 1)})
		c.Fence()
		got[c.MyPE()] = c.PE().Heap()[0]
		if n := c.PE().Outstanding(); n != 0 {
			t.Errorf("rank %d: %d puts or barrier signals in flight after the fence", c.MyPE(), n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for rk := range got {
		left := (rk - 1 + 8) % 8
		if got[rk] != byte(left+1) {
			t.Fatalf("rank %d read %d after fence, want %d", rk, got[rk], left+1)
		}
	}
}

func TestCompareAndSwap(t *testing.T) {
	j := newRMA(t, "perlmutter-cpu", 2, 8, 8)
	var first, second, final uint64
	err := j.Launch(func(c *shmem.Ctx) {
		if c.MyPE() == 0 {
			first = c.AtomicCompareSwap(1, 0, 0, 100)  // succeeds
			second = c.AtomicCompareSwap(1, 0, 0, 200) // fails: now 100
			final = j.PE(1).Uint64At(0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != 0 {
		t.Fatalf("first CAS observed %d, want 0", first)
	}
	if second != 100 {
		t.Fatalf("second CAS observed %d, want 100", second)
	}
	if final != 100 {
		t.Fatalf("final value %d, want 100 (second CAS must fail)", final)
	}
}

func TestFetchAndAddAtomicity(t *testing.T) {
	// Every rank increments rank 0's counter concurrently; the sum
	// must be exact and each fetch value unique.
	const n = 8
	j := newRMA(t, "perlmutter-cpu", n, 8, 8)
	seen := make(map[uint64]bool)
	err := j.Launch(func(c *shmem.Ctx) {
		old := c.AtomicFetchAdd(0, 0, 1)
		if seen[old] {
			t.Errorf("duplicate fetch value %d", old)
		}
		seen[old] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := j.PE(0).Uint64At(0); got != n {
		t.Fatalf("counter = %d, want %d", got, n)
	}
}

func TestSpectrumOneSidedSlower(t *testing.T) {
	// Fig 3c: on Summit, the one-sided path is consistently slower
	// than two-sided. Compare one fully synchronized small message.
	oneSided := func() sim.Time {
		j := newRMA(t, "summit-cpu", 42, 4096, 4096)
		var el sim.Time
		if err := j.Launch(func(c *shmem.Ctx) {
			if c.MyPE() != 0 {
				return
			}
			start := c.Now()
			c.PutNBI(41, 0, make([]byte, 100))
			c.Flush(41, 0)
			c.PutNBI(41, 1024, []byte{1})
			c.Flush(41, 1024)
			el = c.Now() - start
		}); err != nil {
			t.Fatal(err)
		}
		return el
	}()
	twoSided := func() sim.Time {
		c := newComm(t, "summit-cpu", 42)
		var el sim.Time
		if err := c.Launch(func(r *Rank) {
			if r.Rank() == 0 {
				r.Send(41, 0, make([]byte, 100))
			} else if r.Rank() == 41 {
				start := r.Now()
				r.Recv(0, 0)
				el = r.Now() - start
			}
		}); err != nil {
			t.Fatal(err)
		}
		return el
	}()
	if oneSided <= twoSided {
		t.Fatalf("Spectrum one-sided (%v) should be slower than two-sided (%v)", oneSided, twoSided)
	}
	if ratio := float64(oneSided) / float64(twoSided); ratio < 1.5 {
		t.Fatalf("Summit one-sided/two-sided ratio = %.2f, want clearly worse", ratio)
	}
}

func TestWindowBoundsPanic(t *testing.T) {
	j := newRMA(t, "perlmutter-cpu", 2, 8, 8)
	err := j.Launch(func(c *shmem.Ctx) {
		if c.MyPE() != 0 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("expected panic for out-of-range put")
			}
		}()
		c.PutNBI(1, 6, []byte{1, 2, 3, 4})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpStats(t *testing.T) {
	j := newRMA(t, "perlmutter-cpu", 2, 16, 16)
	err := j.Launch(func(c *shmem.Ctx) {
		if c.MyPE() == 0 {
			c.PutNBI(1, 0, []byte{1})
			c.Flush(1, 0)
			c.AtomicCompareSwap(1, 8, 0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	puts, atomics := j.PE(0).OpStats()
	if puts != 1 || atomics != 1 {
		t.Fatalf("op stats = %d/%d", puts, atomics)
	}
}

// TestNoOneSidedOnMachineWithoutRMA checks that every CPU machine of
// the catalog builds a one-sided job, and that a machine without the
// one-sided parameters, or without the two-sided ones its barrier
// needs, is refused by name.
func TestNoOneSidedOnMachineWithoutRMA(t *testing.T) {
	for _, name := range machine.Names() {
		cfg, _ := machine.Get(name)
		if cfg.Kind != machine.CPU {
			continue
		}
		if _, err := shmem.NewJobSharded(cfg, machine.OneSided, 2, 8, 8, 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	noTwo := *machine.PerlmutterCPU
	noTwo.Name = "perlmutter-cpu-without-two-sided"
	noTwo.Transports = maps.Clone(noTwo.Transports)
	delete(noTwo.Transports, machine.TwoSided)
	for _, cfg := range []*machine.Config{machine.PerlmutterGPU, &noTwo} {
		_, err := shmem.NewJobSharded(cfg, machine.OneSided, 2, 8, 8, 1)
		if err == nil || !strings.Contains(err.Error(), cfg.Name) {
			t.Errorf("%s: one-sided job error %v, want one naming the machine", cfg.Name, err)
		}
	}
}
