package shmem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	goruntime "runtime"
	"testing"

	"msgroofline/internal/machine"
	"msgroofline/internal/sim"
)

// TestOneSidedIssuePath pins what the one-sided MPI issue path charges
// and traces: a put costs one op, a flush one op and then its wait, a
// local flush one op, Quiet (flush-all) one op and then its wait, and
// a 1-PE barrier one two-sided op. Only the data put is traced, with
// its bare payload; the signal put is charged but not traced.
func TestOneSidedIssuePath(t *testing.T) {
	cfg := machine.PerlmutterCPU
	one, _ := cfg.Params(machine.OneSided)
	two, _ := cfg.Params(machine.TwoSided)
	const sigBase = 32
	j, err := NewJobSharded(cfg, machine.OneSided, 2, sigBase+8, sigBase, 1)
	if err != nil {
		t.Fatal(err)
	}
	var traced []int64
	j.SetHook(func(_, _ int, bytes int64, _, _ sim.Time) { traced = append(traced, bytes) })
	var put, local, flush, quiet sim.Time
	err = j.Launch(func(c *Ctx) {
		if c.MyPE() != 0 {
			return
		}
		t0 := c.Now()
		c.PutNBI(1, 0, []byte("payload"))
		t1 := c.Now()
		c.FlushLocal()
		t2 := c.Now()
		c.Flush(1, 0)
		t3 := c.Now()
		c.PutNBI(1, sigBase, []byte{1, 0, 0, 0, 0, 0, 0, 0})
		t4 := c.Now()
		c.Quiet()
		put, local, flush, quiet = t1-t0, t2-t1, t3-t2, c.Now()-t4
		if n := c.PE().Outstanding(); n != 0 {
			t.Errorf("%d puts outstanding after Quiet", n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if put != one.OpOverhead || local != one.OpOverhead {
		t.Errorf("put cost %v and flush_local %v, want o = %v", put, local, one.OpOverhead)
	}
	if flush <= one.OpOverhead || quiet <= one.OpOverhead {
		t.Errorf("flush took %v and flush-all %v, want an op plus the wait for the put", flush, quiet)
	}
	if fmt.Sprint(traced) != "[7]" {
		t.Errorf("hook saw puts of %v bytes, want only the 7-byte data put", traced)
	}
	if got := j.PE(1).View(0, 7); string(got) != "payload" || j.PE(1).Uint64At(sigBase) != 1 {
		t.Errorf("PE 1 reads %q with signal %d", got, j.PE(1).Uint64At(sigBase))
	}

	single, err := NewJobSharded(cfg, machine.OneSided, 1, 8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	var barrier sim.Time
	if err := single.Launch(func(c *Ctx) { c.Barrier(); barrier = c.Now() }); err != nil {
		t.Fatal(err)
	}
	if barrier != two.OpOverhead {
		t.Errorf("1-PE barrier took %v, want one two-sided op, %v", barrier, two.OpOverhead)
	}
}

// TestOneSidedFlushByArea checks that a flush of the data region does
// not wait for puts into the signal words: MPI flushes one window, and
// the data and the signals are two.
func TestOneSidedFlushByArea(t *testing.T) {
	const sigBase = 8
	j, err := NewJobSharded(machine.PerlmutterCPU, machine.OneSided, 2, sigBase+8, sigBase, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sigInFlight int
	err = j.Launch(func(c *Ctx) {
		if c.MyPE() != 0 {
			return
		}
		// The signal put leaves an op after the data put, so it lands
		// after it.
		c.PutNBI(1, 0, make([]byte, 8))
		c.PutNBI(1, sigBase, []byte{1, 0, 0, 0, 0, 0, 0, 0})
		c.Flush(1, 0)
		sigInFlight = c.PE().inFlight(1, 1)
		c.Flush(1, sigBase)
	})
	if err != nil {
		t.Fatal(err)
	}
	if sigInFlight != 1 {
		t.Errorf("%d signal puts in flight after the data flush, want 1", sigInFlight)
	}
}

// TestOneSidedFlightsDrain checks the per-destination in-flight counts
// of a one-sided PE: one entry per peer put to, and every count back
// at zero after a flush of one peer and a flush-all.
func TestOneSidedFlightsDrain(t *testing.T) {
	const npes = 8
	j, err := NewJobSharded(machine.Dragonfly1K, machine.OneSided, npes, 8*npes, 8*npes, 1)
	if err != nil {
		t.Fatal(err)
	}
	maxInFlight := 0
	err = j.Launch(func(c *Ctx) {
		me := c.MyPE()
		for d := 0; d < npes; d++ {
			if d != me {
				c.PutNBI(d, 8*me, []byte{1, 2, 3})
			}
		}
		maxInFlight = max(maxInFlight, c.PE().outstanding)
		c.Flush((me+1)%npes, 0)
		c.Quiet()
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxInFlight == 0 {
		t.Fatal("no put was ever in flight")
	}
	for pe := 0; pe < npes; pe++ {
		p := j.PE(pe)
		if len(p.flights) != npes-1 || p.outstanding != 0 {
			t.Fatalf("PE %d: %d destinations counted, %d puts outstanding; want %d, 0", pe, len(p.flights), p.outstanding, npes-1)
		}
		for _, f := range p.flights {
			if f.n != [2]int{} {
				t.Fatalf("PE %d: %d data and %d signal puts to %d still counted", pe, f.n[0], f.n[1], f.dst)
			}
		}
	}
}

// ringJobHeap builds a one-sided job over n PEs, runs one
// neighbour-only exchange (a put to each ring neighbour, then
// flush-all), and returns the heap the job still holds afterwards.
func ringJobHeap(t *testing.T, cfg *machine.Config, n int) int64 {
	t.Helper()
	base := liveHeap()
	j, err := NewJobSharded(cfg, machine.OneSided, n, 16, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	err = j.Launch(func(c *Ctx) {
		me := c.MyPE()
		c.PutNBI((me+n-1)%n, 0, []byte{3})
		c.PutNBI((me+1)%n, 8, []byte{4})
		c.Quiet()
	})
	if err != nil {
		t.Fatal(err)
	}
	held := liveHeap() - base
	goruntime.KeepAlive(j)
	return held
}

func liveHeap() int64 {
	goruntime.GC()
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestOneSidedStateScalesLinearly is a metamorphic memory check: a
// one-sided job whose PEs put only to their ring neighbours must hold
// about 4x the heap at 4P PEs as at P. In-flight counts sized by the
// job instead of by the peers put to grow it 16x.
func TestOneSidedStateScalesLinearly(t *testing.T) {
	// A generated dragonfly of 32 nodes holding up to 128 ranks each:
	// both sizes use every node, so the fabric and its route caches are
	// the same and only per-PE state differs.
	df := machine.Dragonfly{
		Groups: 4, RoutersPerGroup: 4, NodesPerRouter: 2, GlobalLinksPerRouter: 1, RanksPerNode: 128,
	}
	cfg := *machine.Dragonfly10K
	cfg.Name, cfg.MaxRanks = "dragonfly-4k-test", df.MaxRanks()
	cfg.Topology = machine.Topology{Dragonfly: &df, Routing: machine.RoutingAdaptive}
	const p = 1024
	small := ringJobHeap(t, &cfg, p)
	large := ringJobHeap(t, &cfg, 4*p)
	ratio := float64(large) / float64(small)
	t.Logf("live heap: %d PEs %.1f MB, %d PEs %.1f MB (%.2fx)", p, float64(small)/(1<<20), 4*p, float64(large)/(1<<20), ratio)
	if small <= 0 || ratio > 6 {
		t.Fatalf("heap grew %.2fx from %d to %d PEs (%d -> %d bytes); linear is 4x, quadratic 16x", ratio, p, 4*p, small, large)
	}
}

// TestOneSidedRecordsAcrossWorkers drives the one-sided path's pooled
// put records and atomic transactions with cross-group traffic in both
// directions: bursts of puts, each a few hundred nanoseconds after the
// last so records retire and are reused while earlier ones still land,
// a fetch-and-add per round and a fence every fourth. Heaps, fetched
// values and the event digest must match between one and two
// concurrent pool workers; under -race the run checks that each record
// list is touched only from its owner's engine.
func TestOneSidedRecordsAcrossWorkers(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(4))
	const npes, rounds, burst = 128, 12, 8
	const counter = 8 * rounds * burst
	type result struct {
		heap   [npes][]byte
		fetch  [npes]string
		digest uint64
	}
	run := func(shards int) *result {
		j, err := NewJobSharded(machine.PerlmutterCPU, machine.OneSided, npes, counter+8, counter+8, shards)
		if err != nil {
			t.Fatal(err)
		}
		res := &result{}
		err = j.Launch(func(c *Ctx) {
			me := c.MyPE()
			peer := (me + npes/2) % npes
			var fetched []uint64
			for round := 0; round < rounds; round++ {
				for k := 0; k < burst; k++ {
					var word [8]byte
					binary.LittleEndian.PutUint64(word[:], uint64((me*rounds+round)*burst+k))
					c.PutNBI(peer, 8*(round*burst+k), word[:])
					c.Compute(sim.FromNanoseconds(float64(100 * (1 + (me+k)%5))))
				}
				fetched = append(fetched, c.AtomicFetchAdd(peer, counter, uint64(round+1)))
				if round%4 == 3 {
					c.Fence()
				}
			}
			c.Fence()
			res.heap[me] = append([]byte(nil), c.PE().Heap()...)
			res.fetch[me] = fmt.Sprint(fetched)
		})
		if err != nil {
			t.Fatal(err)
		}
		res.digest = j.Digest()
		return res
	}
	one, two := run(1), run(2)
	for me := 0; me < npes; me++ {
		peer := (me + npes/2) % npes
		for i := 0; i < rounds*burst; i++ {
			if got := binary.LittleEndian.Uint64(one.heap[me][8*i:]); got != uint64(peer*rounds*burst+i) {
				t.Fatalf("PE %d word %d = %d", me, i, got)
			}
		}
		if got := binary.LittleEndian.Uint64(one.heap[me][counter:]); got != rounds*(rounds+1)/2 {
			t.Fatalf("PE %d counter = %d, want %d", me, got, rounds*(rounds+1)/2)
		}
		if !bytes.Equal(one.heap[me], two.heap[me]) || one.fetch[me] != two.fetch[me] {
			t.Fatalf("PE %d differs between 1 and 2 workers", me)
		}
	}
	if one.digest != two.digest {
		t.Fatalf("digest %x at 1 worker, %x at 2", one.digest, two.digest)
	}
}
