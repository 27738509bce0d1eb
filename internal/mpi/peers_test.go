package mpi

import (
	"encoding/binary"
	goruntime "runtime"
	"testing"

	"msgroofline/internal/machine"
	"msgroofline/internal/netsim"
	"msgroofline/internal/sim"
)

func TestPerPeerStateDrains(t *testing.T) {
	cfg, err := machine.Get("dragonfly-1k")
	if err != nil {
		t.Fatal(err)
	}
	// Two-sided under fault injection: 8 ranks on the 256-node fabric
	// get a node each, so every message crosses links, and latency
	// spikes let later messages overtake earlier ones.
	const ranks, msgs = 8, 40
	c, err := NewCommSharded(cfg, ranks, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.World().Inst.Net.SetFaults(&netsim.Faults{Seed: 7, DropProb: 0.1, SpikeProb: 0.5, MaxSpike: 20 * sim.Microsecond})
	maxOOO := 0
	c.SetSendHook(func(_, dst int, _ int64, _, _ sim.Time) {
		maxOOO = max(maxOOO, c.ranks[dst].PendingOutOfOrder())
	})
	err = c.Launch(func(r *Rank) {
		peer := (r.Rank() + ranks/2) % ranks
		if r.Rank() < ranks/2 {
			for k := 0; k < msgs; k++ {
				r.Send(peer, 0, binary.LittleEndian.AppendUint64(nil, uint64(k)))
			}
			return
		}
		for k := 0; k < msgs; k++ {
			if got := binary.LittleEndian.Uint64(r.Recv(peer, 0).Data); got != uint64(k) {
				t.Errorf("rank %d: message %d arrived as %d", r.Rank(), k, got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxOOO == 0 {
		t.Fatalf("faults never reordered arrivals (%+v)", c.World().Inst.Net.FaultStats())
	}
	for _, r := range c.ranks {
		for src, o := range r.recv {
			if n := o.Pending(); n != 0 {
				t.Fatalf("rank %d keeps %d out-of-order arrivals from rank %d after the run", r.id, n, src)
			}
		}
	}
}

// liveHeap returns the heap in use after a full collection.
func liveHeap() int64 {
	goruntime.GC()
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// ringWorldHeap builds a communicator over n ranks, runs one
// neighbour-only exchange (a message to each ring neighbour), and
// returns the heap the world still holds afterwards.
func ringWorldHeap(t *testing.T, cfg *machine.Config, n int) int64 {
	t.Helper()
	base := liveHeap()
	c, err := NewCommSharded(cfg, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Launch(func(r *Rank) {
		left, right := (r.Rank()+n-1)%n, (r.Rank()+1)%n
		r.Isend(left, 0, []byte{1})
		r.Isend(right, 0, []byte{2})
		r.Recv(left, 0)
		r.Recv(right, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	held := liveHeap() - base
	goruntime.KeepAlive(c)
	return held
}

// TestPerPeerStateScalesLinearly is a metamorphic memory check: a
// world where every rank talks only to its ring neighbours must hold
// about 4x the heap at 4P ranks as at P. State sized by the world
// instead of by the peers (one dense per-rank slice of P entries)
// grows it 16x.
func TestPerPeerStateScalesLinearly(t *testing.T) {
	// A generated dragonfly of 32 nodes holding up to 128 ranks each:
	// both sizes use every node, so the fabric and its route caches are
	// the same and only per-rank state differs.
	df := machine.Dragonfly{
		Groups: 4, RoutersPerGroup: 4, NodesPerRouter: 2, GlobalLinksPerRouter: 1, RanksPerNode: 128,
	}
	cfg := *machine.Dragonfly10K
	cfg.Name, cfg.MaxRanks = "dragonfly-4k-test", df.MaxRanks()
	cfg.Topology = machine.Topology{Dragonfly: &df, Routing: machine.RoutingAdaptive}
	const p = 1024
	small := ringWorldHeap(t, &cfg, p)
	large := ringWorldHeap(t, &cfg, 4*p)
	ratio := float64(large) / float64(small)
	t.Logf("live heap: %d ranks %.1f MB, %d ranks %.1f MB (%.2fx)", p, float64(small)/(1<<20), 4*p, float64(large)/(1<<20), ratio)
	if small <= 0 || ratio > 6 {
		t.Fatalf("heap grew %.2fx from %d to %d ranks (%d -> %d bytes); linear is 4x, quadratic 16x", ratio, p, 4*p, small, large)
	}
}
