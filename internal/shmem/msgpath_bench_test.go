package shmem

import (
	"testing"

	"msgroofline/internal/machine"
)

// Message-path benchmarks for the PGAS core, one-sided MPI's included,
// beside internal/mpi's two-sided BenchmarkMsgPath*. Each warms a world whose origin PE
// 0 and target PE npes-1 sit in different node groups, so every put
// and atomic between them, and every barrier round, crosses the window
// barrier. CI gates their allocs/op (DESIGN.md §9).

// msgPathWarmup is how many ops the origin runs before the timer
// starts: enough to grow every pool and queue to its steady size.
const msgPathWarmup = 64

// benchMsgPath runs op on PE 0 of an npes-PE job over tr, first
// msgPathWarmup times and then b.N times, and times PE 0's b.N. With
// every set, every PE runs op the same number of times.
func benchMsgPath(b *testing.B, name string, tr machine.Transport, npes, groups int, every bool, op func(c *Ctx, peer int)) {
	cfg, err := machine.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	const heapBytes, sigBase = 64, 32
	j, err := NewJobSharded(cfg, tr, npes, heapBytes, sigBase, 1)
	if err != nil {
		b.Fatal(err)
	}
	peer := npes - 1
	if g := j.World().Groups(); g != groups || j.World().GroupOf(0) == j.World().GroupOf(peer) {
		b.Fatalf("%d node groups with PEs 0 and %d in groups %d and %d; want %d groups, PEs apart",
			g, peer, j.World().GroupOf(0), j.World().GroupOf(peer), groups)
	}
	b.ReportAllocs()
	err = j.Launch(func(c *Ctx) {
		origin := c.MyPE() == 0
		if !origin && !every {
			return
		}
		for i := 0; i < msgPathWarmup; i++ {
			op(c, peer)
		}
		if origin {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			op(c, peer)
		}
		if origin {
			b.StopTimer()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// putSignalQuiet is one 8-byte put-with-signal and the quiet that
// waits for it.
func putSignalQuiet(c *Ctx, peer int) {
	c.PutSignalNBI(peer, 0, []byte("8 bytes."), 32, 1)
	c.Quiet()
}

// BenchmarkMsgPathGPUPutSignalQuiet is a device-initiated
// put-with-signal and quiet between two GPUs of perlmutter-gpu.
func BenchmarkMsgPathGPUPutSignalQuiet(b *testing.B) {
	benchMsgPath(b, "perlmutter-gpu", machine.GPUShmem, 4, 4, false, putSignalQuiet)
}

// BenchmarkMsgPathGPUFetchAdd is one remote fetch-and-add between two
// GPUs of perlmutter-gpu.
func BenchmarkMsgPathGPUFetchAdd(b *testing.B) {
	benchMsgPath(b, "perlmutter-gpu", machine.GPUShmem, 4, 4, false, func(c *Ctx, peer int) {
		c.AtomicFetchAdd(peer, 8, 1)
	})
}

// BenchmarkMsgPathChannelPutSignalQuiet is a memory-channel
// put-with-signal and the drain that waits for it, between the two
// sockets of perlmutter-cpu.
func BenchmarkMsgPathChannelPutSignalQuiet(b *testing.B) {
	benchMsgPath(b, "perlmutter-cpu", machine.MemChannel, 128, 2, false, putSignalQuiet)
}

// BenchmarkMsgPathShmemBarrier is one barrier_all over the 4 GPUs of
// perlmutter-gpu: a quiet and two dissemination rounds of 8-byte
// signals per PE.
func BenchmarkMsgPathShmemBarrier(b *testing.B) {
	benchMsgPath(b, "perlmutter-gpu", machine.GPUShmem, 4, 4, true, func(c *Ctx, _ int) { c.Barrier() })
}

// BenchmarkMsgPathPutFlush is one-sided MPI's 8-byte put from rank 0
// into rank 127's window of perlmutter-cpu, across its two sockets, and
// the flush that waits for it.
func BenchmarkMsgPathPutFlush(b *testing.B) {
	data := []byte("8 bytes.")
	benchMsgPath(b, "perlmutter-cpu", machine.OneSided, 128, 2, false, func(c *Ctx, peer int) {
		c.PutNBI(peer, 0, data)
		c.Flush(peer, 0)
	})
}

// BenchmarkMsgPathFetchAndAdd is one-sided MPI's remote fetch-and-add
// from rank 0 on a word in rank 127's window of perlmutter-cpu.
func BenchmarkMsgPathFetchAndAdd(b *testing.B) {
	benchMsgPath(b, "perlmutter-cpu", machine.OneSided, 128, 2, false, func(c *Ctx, peer int) {
		c.AtomicFetchAdd(peer, 8, 1)
	})
}
