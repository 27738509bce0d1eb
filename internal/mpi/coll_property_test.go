package mpi

import (
	"bytes"
	"math/rand"
	"testing"

	"msgroofline/internal/sim"
)

func encodeF64s(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, f := range v {
		f64put(out[8*i:], f)
	}
	return out
}

// TestCollectivesMatchSequentialReference randomizes rank count,
// payloads, user tags and the engine schedule, and requires every
// collective to come out byte-equal to a sequential in-process
// reference. Payloads are small integer-valued float64s so the
// reduction result is exact regardless of tree shape. Each trial also
// threads user-tagged point-to-point traffic (including tags far into
// the positive range) through the middle of the collective sequence:
// the negative collective tag range must never cross-match user
// receives.
func TestCollectivesMatchSequentialReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	for trial := 0; trial < 12; trial++ {
		p := 2 + rng.Intn(7)   // 2..8: power-of-two and odd topologies
		vn := 1 + rng.Intn(12) // vector length
		seed := rng.Uint64()
		broot := rng.Intn(p)
		groot := rng.Intn(p)
		sroot := rng.Intn(p)
		utag := rng.Intn(1 << 28) // user tag, always >= 0

		vals := make([][]float64, p)
		for r := range vals {
			vals[r] = make([]float64, vn)
			for i := range vals[r] {
				vals[r][i] = float64(rng.Intn(2001) - 1000)
			}
		}
		// Sequential reference.
		sum := make([]float64, vn)
		max := make([]float64, vn)
		copy(max, vals[0])
		for r := 0; r < p; r++ {
			for i, v := range vals[r] {
				sum[i] += v
				if v > max[i] {
					max[i] = v
				}
			}
		}
		var gathered []byte
		for r := 0; r < p; r++ {
			gathered = append(gathered, encodeF64s(vals[r])...)
		}
		a2aBlock := func(src, dst int) []byte {
			return encodeF64s([]float64{float64(src*64 + dst)})
		}

		c := newComm(t, "perlmutter-cpu", p)
		c.World().SetPerturbation(&sim.Perturbation{
			Seed: seed, Reorder: true, MaxJitter: 2 * sim.Microsecond,
		})
		type got struct {
			allsum, allmax, bcast, allg, reduce, gather, scatter []byte
			a2a                                                  [][]byte
			ring                                                 []byte
		}
		outs := make([]got, p)
		drained := make([]bool, p)
		err := c.Launch(func(r *Rank) {
			me := r.Rank()
			g := &outs[me]
			mine := encodeF64s(vals[me])
			// User traffic posted before any collective runs.
			ringIn := r.Irecv((me-1+p)%p, utag)
			r.Isend((me+1)%p, utag, encodeF64s([]float64{float64(9000 + me)}))

			g.allsum = r.Allreduce(mine, SumFloat64)
			g.allmax = r.Allreduce(mine, MaxFloat64)
			var bdata []byte
			if me == broot {
				bdata = encodeF64s(vals[broot])
			}
			g.bcast = r.Bcast(broot, bdata)
			g.allg = r.Allgather(mine)
			blocks := make([][]byte, p)
			for d := 0; d < p; d++ {
				blocks[d] = a2aBlock(me, d)
			}
			g.a2a = r.Alltoall(blocks)
			g.reduce = r.Reduce(groot, mine, SumFloat64)
			g.gather = r.Gather(groot, mine)
			var sblocks [][]byte
			if me == sroot {
				sblocks = make([][]byte, p)
				for d := 0; d < p; d++ {
					sblocks[d] = encodeF64s([]float64{float64(7000 + d)})
				}
			}
			g.scatter = r.Scatter(sroot, sblocks)
			r.Barrier()
			r.Wait(ringIn)
			g.ring = ringIn.Data
			r.Barrier()
			drained[me] = r.PendingUnexpected() == 0 && r.PendingPosted() == 0 &&
				r.PendingOutOfOrder() == 0
		})
		if err != nil {
			t.Fatalf("trial %d (p=%d seed=%d): %v", trial, p, seed, err)
		}
		expect := func(rank int, what string, got, want []byte) {
			if !bytes.Equal(got, want) {
				t.Errorf("trial %d (p=%d seed=%d) rank %d: %s diverged from sequential reference",
					trial, p, seed, rank, what)
			}
		}
		for me := 0; me < p; me++ {
			g := outs[me]
			expect(me, "allreduce(sum)", g.allsum, encodeF64s(sum))
			expect(me, "allreduce(max)", g.allmax, encodeF64s(max))
			expect(me, "bcast", g.bcast, encodeF64s(vals[broot]))
			expect(me, "allgather", g.allg, gathered)
			for s := 0; s < p; s++ {
				expect(me, "alltoall", g.a2a[s], a2aBlock(s, me))
			}
			if me == groot {
				expect(me, "reduce", g.reduce, encodeF64s(sum))
				expect(me, "gather", g.gather, gathered)
			} else if g.reduce != nil || g.gather != nil {
				t.Errorf("trial %d rank %d: non-root got reduce/gather payload", trial, me)
			}
			expect(me, "scatter", g.scatter, encodeF64s([]float64{float64(7000 + me)}))
			expect(me, "user ring", g.ring, encodeF64s([]float64{float64(9000 + (me-1+p)%p)}))
			if !drained[me] {
				t.Errorf("trial %d rank %d: queues not drained", trial, me)
			}
		}
	}
}

// TestInternalTagRangesDisjoint pins the reserved tag layout: user
// tags are >= 0 and collective tags live at or below collTagBase < 0,
// even after many collectives. Any overlap would let internal traffic
// match a user-posted receive. (Barrier rounds are generation signals
// and carry no tag.)
func TestInternalTagRangesDisjoint(t *testing.T) {
	r := &Rank{}
	if collTagBase >= 0 {
		t.Fatalf("collTagBase %d is not negative", collTagBase)
	}
	for seq := 0; seq < 1<<14; seq++ {
		for round := 0; round < 64; round++ {
			if ct := r.collTag(seq, round); ct > collTagBase {
				t.Fatalf("collective tag %d (seq=%d round=%d) above collTagBase %d", ct, seq, round, collTagBase)
			}
		}
	}
}
