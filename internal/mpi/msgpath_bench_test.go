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
// return to their caller (DESIGN.md §18).

// msgPathWarmup is how many ops each active rank runs before the timer
// starts: enough to grow every pool, queue and map to its steady size.
const msgPathWarmup = 64

// benchMsgPath runs the op that setup returns for each active rank,
// first msgPathWarmup times and then b.N times. Allocations and time
// count from the end of rank 0's warm-up to the end of its b.N-th op.
func benchMsgPath(b *testing.B, active func(rank int) bool, setup func(r *Rank, w *Win) func()) {
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
	w, err := c.NewWin(64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	err = c.Launch(func(r *Rank) {
		if !active(r.Rank()) {
			return
		}
		op := setup(r, w)
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

func originOnly(rank int) bool { return rank == 0 }

func everyRank(int) bool { return true }

// BenchmarkMsgPathIsendIrecvWaitall exchanges 8 bytes each way per op:
// each rank posts an Irecv and an Isend and waits for both. Each call
// returns a new request the caller owns, so an op allocates exactly
// those four, two per rank, and nothing on the message path under
// them (the barrier, which reuses its request, shows that path alone).
func BenchmarkMsgPathIsendIrecvWaitall(b *testing.B) {
	benchMsgPath(b, pair, func(r *Rank, _ *Win) func() {
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
	benchMsgPath(b, everyRank, func(r *Rank, _ *Win) func() { return r.Barrier })
}

// BenchmarkMsgPathPutFlush is an 8-byte put from rank 0 into rank 127's
// window and the flush that waits for it.
func BenchmarkMsgPathPutFlush(b *testing.B) {
	benchMsgPath(b, originOnly, func(r *Rank, w *Win) func() {
		data := []byte("8 bytes.")
		return func() {
			r.Put(w, 127, 0, data)
			r.Flush(w, 127)
		}
	})
}

// BenchmarkMsgPathFetchAndAdd is one remote fetch-and-add from rank 0
// on a word in rank 127's window.
func BenchmarkMsgPathFetchAndAdd(b *testing.B) {
	benchMsgPath(b, originOnly, func(r *Rank, w *Win) func() {
		return func() { r.FetchAndAdd(w, 127, 8, 1) }
	})
}
