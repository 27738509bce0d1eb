package sptrsv

import (
	"fmt"

	"msgroofline/internal/comm"
	"msgroofline/internal/machine"
	"msgroofline/internal/runtime"
)

// Run executes the solve once on the transport named by
// cfg.Transport. The kernel is transport-agnostic: solving a
// supernode streams one contribution per remote dependent via
// Deliver into the receiver's precomputed edge slot, and the receive
// loop blocks on WaitAnySlot until its expected count is met. The
// transport realizes delivery with its native protocol — eager Isend
// + Recv(ANY_SOURCE), the strict 4-op put/flush/put/flush plus
// Listing-1 polling, fused notified access, or nvshmem
// put-with-signal + wait_until_any.
func Run(cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	m := cfg.Matrix
	perRank, slotOf := remoteIncoming(m, cfg.Ranks)
	stride := 8 * maxSnodeSize(m)
	counts := make([]int, cfg.Ranks)
	for r := range counts {
		counts[r] = len(perRank[r])
	}
	t, err := comm.New(comm.Spec{
		Machine: cfg.Machine, Kind: cfg.Transport, Ranks: cfg.Ranks,
		StreamSlots: counts, SlotBytes: stride, PollCheck: cfg.PollCheck,
		Shards: cfg.Shards, Chaos: cfg.Chaos,
	})
	if err != nil {
		return nil, fmt.Errorf("sptrsv %s: %w", cfg.Transport, err)
	}
	rate := DefaultCPUFlopRate
	if cfg.Machine.Kind == machine.GPU {
		rate *= DefaultGPUSparseScale
	}
	x := make([]float64, m.N)
	err = t.Launch(func(ep comm.Endpoint) {
		me := ep.Rank()
		st := newSolveState(&cfg, me, x, rate)
		edges := perRank[me]
		expected := len(edges)
		// One kernel launch hosts the whole persistent GPU solve.
		if cfg.Machine.Kind == machine.GPU && cfg.Machine.GPU != nil {
			ep.Compute(cfg.Machine.GPU.KernelLaunch)
		}

		// process solves j and recursively drains local chains;
		// remote contributions are delivered as they are produced.
		var process func(j int)
		process = func(j int) {
			ups, flops := st.solveLocal(j)
			ep.Compute(st.flopTime(flops))
			for _, u := range ups {
				if u.dst == me {
					if st.accumulate(u.child, u.payload) {
						process(u.child)
					}
					continue
				}
				ep.Deliver(u.dst, slotOf[edge{child: u.child, parent: j}], runtime.EncodeFloats(nil, u.payload))
			}
		}
		for _, j := range st.readyRoots() {
			process(j)
		}
		for got := 0; got < expected; got++ {
			slot, data := ep.WaitAnySlot()
			e := edges[slot]
			sz := m.Snodes[e.child].Size()
			if st.accumulate(e.child, runtime.DecodeFloats(nil, data[:8*sz])) {
				process(e.child)
			}
		}
		ep.Quiet()
	})
	if err != nil {
		return nil, fmt.Errorf("sptrsv %s: %w", cfg.Transport, err)
	}
	rec := t.Recorder()
	return &Result{Elapsed: t.Elapsed(), Comm: rec.Summarize(t.Elapsed()),
		X: x, Ranks: cfg.Ranks, EventDigest: t.Digest(), rec: rec}, nil
}
