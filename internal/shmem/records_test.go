package shmem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	goruntime "runtime"
	"testing"

	"msgroofline/internal/machine"
)

// TestPutRecordsAcrossWorkers drives pooled put records and per-context
// atomic records with cross-group traffic in both directions: every PE
// writes channel puts with signals into its partner on the other node
// group while two blocks per PE run fetch-and-adds on the partner's
// counter. Payloads, heaps, fetched values and the event digest must
// match between one and four concurrent pool workers; under -race the
// run checks that each record list is touched only from its owner's
// engine.
func TestPutRecordsAcrossWorkers(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(4))
	cfg, err := machine.Get("perlmutter-cpu")
	if err != nil {
		t.Fatal(err)
	}
	const npes, rounds = 128, 10
	const sigBase = 8 * rounds
	const heapBytes = sigBase + 8*rounds + 8
	type result struct {
		heap   [npes][]byte
		fetch  [npes]string
		digest uint64
	}
	run := func(shards int) *result {
		j, err := NewJobSharded(cfg, machine.MemChannel, npes, heapBytes, sigBase, shards)
		if err != nil {
			t.Fatal(err)
		}
		res := &result{}
		err = j.Launch(func(c *Ctx) {
			me := c.MyPE()
			peer := (me + npes/2) % npes
			var fetched [2][]uint64
			c.ForkJoin(2, func(blk *Ctx, b int) {
				for round := 0; round < rounds; round++ {
					if b == 0 {
						var word [8]byte
						binary.LittleEndian.PutUint64(word[:], uint64(me*rounds+round))
						blk.PutSignalNBI(peer, 8*round, word[:], sigBase+8*round, 1)
					}
					fetched[b] = append(fetched[b], blk.AtomicFetchAdd(peer, heapBytes-8, uint64(b+1)))
				}
			})
			c.Quiet()
			sigs := make([]int, rounds)
			for i := range sigs {
				sigs[i] = sigBase + 8*i
			}
			c.WaitUntilAll(sigs, 1)
			c.Barrier()
			res.heap[me] = append([]byte(nil), c.PE().Heap()...)
			res.fetch[me] = fmt.Sprint(fetched)
		})
		if err != nil {
			t.Fatal(err)
		}
		res.digest = j.Digest()
		return res
	}
	one, four := run(1), run(4)
	for me := 0; me < npes; me++ {
		peer := (me + npes/2) % npes
		for round := 0; round < rounds; round++ {
			if got := binary.LittleEndian.Uint64(one.heap[me][8*round:]); got != uint64(peer*rounds+round) {
				t.Fatalf("PE %d word %d = %d", me, round, got)
			}
		}
		if got := binary.LittleEndian.Uint64(one.heap[me][heapBytes-8:]); got != 3*rounds {
			t.Fatalf("PE %d counter = %d, want %d", me, got, 3*rounds)
		}
		if !bytes.Equal(one.heap[me], four.heap[me]) || one.fetch[me] != four.fetch[me] {
			t.Fatalf("PE %d differs between 1 and 4 workers", me)
		}
	}
	if one.digest != four.digest {
		t.Fatalf("digest %x at 1 worker, %x at 4", one.digest, four.digest)
	}
}
