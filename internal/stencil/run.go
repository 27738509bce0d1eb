package stencil

import (
	"fmt"

	"msgroofline/internal/comm"
	"msgroofline/internal/runtime"
	"msgroofline/internal/sim"
	"msgroofline/internal/trace"
)

// Run executes the stencil once on the transport named by
// cfg.Transport. The kernel is transport-agnostic: per iteration each
// rank offers its halos as one BSP exchange — four sends into the
// neighbors' opposite slots, four expected receives into its own —
// and the transport realizes the epoch with its native protocol
// (Isend/Irecv/Waitall, Put+fence, put-with-signal+wait).
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	l := layout{px: cfg.PX, py: cfg.PY, nx: cfg.Grid / cfg.PX, ny: cfg.Grid / cfg.PY}
	ranks := cfg.PX * cfg.PY
	// Each of the 4 halo slots must fit the larger halo direction.
	slot := 8 * l.nx
	if 8*l.ny > slot {
		slot = 8 * l.ny
	}
	t, err := comm.New(comm.Spec{
		Machine: cfg.Machine, Kind: cfg.Transport, Ranks: ranks,
		ExchangeSlots: 4, SlotBytes: slot, Shards: cfg.Shards,
		Chaos: cfg.Chaos,
	})
	if err != nil {
		return nil, fmt.Errorf("stencil %s: %w", cfg.Transport, err)
	}
	sums := make([]float64, ranks)
	err = t.Launch(func(ep comm.Endpoint) {
		me := ep.Rank()
		nbrs := l.neighbors(me)
		var tl *tile
		if cfg.Verify {
			tl = newTile(l.nx, l.ny)
			tl.initTile(l, me, cfg.Grid)
		}
		comp := computeTime(l, cfg)
		// The neighbours, and so the exchange's shape, are fixed for
		// the run: build it once. Sends and receives list the same
		// directions in the same order; a receive's slot is its
		// direction.
		sends := make([]comm.Msg, 0, len(nbrs))
		recvs := make([]comm.Expect, 0, len(nbrs))
		for dir, nb := range nbrs {
			if nb < 0 {
				continue
			}
			recvs = append(recvs, comm.Expect{Peer: nb, Slot: dir, Bytes: int(l.haloBytes(dir))})
			// My dir-halo lands in the neighbor's opposite slot.
			// Timing-only runs move no halo data: a blank payload
			// stages nothing and lands nothing.
			sends = append(sends, comm.Msg{Peer: nb, Slot: opposite(dir), Data: runtime.Blank(int(l.haloBytes(dir)))})
		}
		for iter := 0; iter < cfg.Iters; iter++ {
			if cfg.Verify {
				for k, x := range recvs {
					sends[k].Data = runtime.EncodeFloats(nil, tl.extract(x.Slot))
				}
			}
			halos := ep.Exchange(iter, sends, recvs)
			if cfg.Verify {
				for k, data := range halos {
					tl.inject(recvs[k].Slot, runtime.DecodeFloats(nil, data))
				}
				tl.step()
			}
			ep.Compute(comp)
		}
		if cfg.Verify {
			sums[me] = tl.checksum()
		}
	})
	if err != nil {
		return nil, fmt.Errorf("stencil %s: %w", cfg.Transport, err)
	}
	res := finish(cfg, t.Elapsed(), t.Recorder(), sums, ranks)
	res.EventDigest = t.Digest()
	return res, nil
}

func finish(cfg Config, elapsed sim.Time, rec *trace.Recorder, sums []float64, ranks int) *Result {
	res := &Result{
		Elapsed: elapsed,
		PerIter: elapsed / sim.Time(cfg.Iters),
		Comm:    rec.Summarize(elapsed),
		Ranks:   ranks,
		rec:     rec,
	}
	for _, s := range sums {
		res.Checksum += s
	}
	return res
}
