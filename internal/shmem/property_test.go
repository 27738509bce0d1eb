package shmem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"msgroofline/internal/machine"
	"msgroofline/internal/sim"
)

func newJobProp(npes, heap int) *Job {
	cfg, err := machine.Get("perlmutter-gpu")
	if err != nil {
		panic(err)
	}
	j, err := NewJob(cfg, npes, heap)
	if err != nil {
		panic(err)
	}
	return j
}

// Property: concurrent random fetch-adds from all PEs and blocks sum
// exactly.
func TestPropertyAtomicSumExact(t *testing.T) {
	f := func(seed int64, addsRaw, blocksRaw uint8) bool {
		adds := int(addsRaw%30) + 1
		blocks := int(blocksRaw%6) + 1
		j := newJobProp(4, 64)
		deltas := make([][]uint64, 4)
		var want uint64
		rng := rand.New(rand.NewSource(seed))
		for pe := range deltas {
			for i := 0; i < adds; i++ {
				d := uint64(rng.Intn(1000) + 1)
				deltas[pe] = append(deltas[pe], d)
				want += d
			}
		}
		err := j.Launch(func(c *Ctx) {
			mine := deltas[c.MyPE()]
			c.ForkJoin(blocks, func(blk *Ctx, bi int) {
				for i := bi; i < len(mine); i += blocks {
					blk.AtomicFetchAdd(0, 0, mine[i])
				}
			})
		})
		if err != nil {
			return false
		}
		return j.PE(0).Uint64At(0) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: a signal is never observed before its data, for any
// message size.
func TestPropertySignalOrdering(t *testing.T) {
	f := func(szRaw uint16) bool {
		sz := int(szRaw%4096) + 1
		j := newJobProp(2, sz+64)
		ok := true
		err := j.Launch(func(c *Ctx) {
			switch c.MyPE() {
			case 0:
				payload := make([]byte, sz)
				for i := range payload {
					payload[i] = 0xAB
				}
				c.PutSignalNBI(1, 0, payload, sz+8, 7)
			case 1:
				c.WaitUntilAll([]int{sz + 8}, 7)
				heap := c.PE().Heap()
				for i := 0; i < sz; i++ {
					if heap[i] != 0xAB {
						ok = false
						break
					}
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: delivery time is at least software latency + wire latency
// + serialization, for any size and destination.
func TestPropertyPutLowerBound(t *testing.T) {
	cfg, _ := machine.Get("summit-gpu")
	tp, _ := cfg.Params(machine.GPUShmem)
	f := func(szRaw uint16, dstRaw uint8) bool {
		sz := int(szRaw%8192) + 1
		dst := int(dstRaw%5) + 1
		j, err := NewJob(cfg, 6, sz+64)
		if err != nil {
			return false
		}
		var elapsed sim.Time
		err = j.Launch(func(c *Ctx) {
			if c.MyPE() != 0 {
				return
			}
			start := c.Now()
			c.PutSignalNBI(dst, 0, make([]byte, sz), sz+8, 1)
			c.Quiet()
			elapsed = c.Now() - start
		})
		if err != nil {
			return false
		}
		in, _ := cfg.Instantiate(6)
		r, err := in.Net.RouteTo(in.Places[0].Node, in.Places[dst].Node)
		if err != nil {
			return false
		}
		ser := sim.TransferTime(int64(sz+8), r.PeakBandwidth())
		lb := tp.SoftLatency + r.BaseLatency() + ser
		return elapsed >= lb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
