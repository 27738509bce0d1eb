package mpi

import (
	"testing"

	"msgroofline/internal/machine"
	"msgroofline/internal/runtime"
)

// Message-path benchmarks. Each runs on a warmed two-node world, 128
// perlmutter-cpu ranks in two node groups, so every message between
// rank 0 and rank 127 crosses the window barrier. CI requires
// 0 allocs/op from each of them, except the requests Isend and Irecv
// return to their caller (DESIGN.md §9). The one-sided put+flush and
// fetch-and-add are internal/shmem's.

// msgPathWarmup is how many ops each active rank runs before the timer
// starts: enough to grow every pool, queue and map to its steady size.
const msgPathWarmup = 64

// benchMsgPath runs the op that setup returns for each active rank,
// first msgPathWarmup times and then b.N times. Allocations and time
// count from the end of rank 0's warm-up to the end of its b.N-th op.
func benchMsgPath(b *testing.B, active func(rank int) bool, setup func(r *Rank) func()) {
	cfg, err := machine.Get("perlmutter-cpu")
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewCommSharded(cfg, 128, 1)
	if err != nil {
		b.Fatal(err)
	}
	if g := c.World().Groups(); g != 2 {
		b.Fatalf("%d node groups, want 2", g)
	}
	b.ReportAllocs()
	err = c.Launch(func(r *Rank) {
		if !active(r.Rank()) {
			return
		}
		op := setup(r)
		for i := 0; i < msgPathWarmup; i++ {
			op()
		}
		if r.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			op()
		}
		if r.Rank() == 0 {
			b.StopTimer()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// pair is rank 0 and its cross-group peer, rank 127.
func pair(rank int) bool { return rank == 0 || rank == 127 }

func everyRank(int) bool { return true }

// BenchmarkMsgPathIsendIrecvWaitall exchanges 8 bytes each way per op:
// each rank posts an Irecv and an Isend and waits for both. Each call
// returns a new request the caller owns, so an op allocates exactly
// those four, two per rank, and nothing on the message path under
// them (the barrier, which reuses its request, shows that path alone).
func BenchmarkMsgPathIsendIrecvWaitall(b *testing.B) {
	benchMsgPath(b, pair, func(r *Rank) func() {
		peer := 127 - r.Rank()
		data := runtime.Blank(8)
		reqs := make([]*Request, 2)
		return func() {
			reqs[0] = r.Irecv(peer, 0)
			reqs[1] = r.Isend(peer, 0, data)
			r.Waitall(reqs)
		}
	})
}

// BenchmarkMsgPathBarrier is one dissemination barrier over all 128
// ranks: seven rounds of 1-byte messages per rank.
func BenchmarkMsgPathBarrier(b *testing.B) {
	benchMsgPath(b, everyRank, func(r *Rank) func() { return r.Barrier })
}
