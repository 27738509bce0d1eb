package bench

import (
	"fmt"

	"msgroofline/internal/machine"
	"msgroofline/internal/mpi"
	"msgroofline/internal/runtime"
	"msgroofline/internal/sim"
)

// Classic baselines: the flood and ping-pong benchmarks every prior
// study used (§IV: "All of the existing studies use the flood send
// (or put) or ping-pong to benchmark the communication performance.
// However, it provides a loose bound…"). They exist here precisely so
// the Message Roofline's tighter bound can be compared against them.

// PingPong measures the classic round-trip: rank 0 sends B bytes,
// rank 1 echoes them, repeated reps times; returns the half round
// trip (the usual "latency" number) and the ping-pong bandwidth.
func PingPong(cfg *machine.Config, ranks int, bytes int64, reps int) (halfRTT sim.Time, gbs float64, err error) {
	if reps < 1 {
		return 0, 0, fmt.Errorf("bench: reps must be >= 1")
	}
	src, dst := farPair(ranks)
	c, err := mpi.NewComm(cfg, ranks)
	if err != nil {
		return 0, 0, err
	}
	var total sim.Time
	err = c.Launch(func(r *mpi.Rank) {
		payload := runtime.Blank(int(bytes))
		switch r.Rank() {
		case src:
			start := r.Now()
			for i := 0; i < reps; i++ {
				r.Send(dst, i, payload)
				r.Recv(dst, i)
			}
			total = r.Now() - start
		case dst:
			for i := 0; i < reps; i++ {
				r.Recv(src, i)
				r.Send(src, i, payload)
			}
		}
	})
	if err != nil {
		return 0, 0, err
	}
	halfRTT = total / sim.Time(2*reps)
	if total > 0 {
		gbs = float64(2*reps) * float64(bytes) / total.Seconds() / 1e9
	}
	return halfRTT, gbs, nil
}

// Flood measures the classic flood bound: the sender streams `count`
// messages of B bytes with no synchronization at all; the receiver
// posts everything up front. This is the loose upper bound the paper
// contrasts with the msg/sync ceilings.
func Flood(cfg *machine.Config, ranks int, bytes int64, count int) (gbs float64, err error) {
	if count < 1 {
		return 0, fmt.Errorf("bench: count must be >= 1")
	}
	src, dst := farPair(ranks)
	c, err := mpi.NewComm(cfg, ranks)
	if err != nil {
		return 0, err
	}
	var elapsed sim.Time
	err = c.Launch(func(r *mpi.Rank) {
		switch r.Rank() {
		case src:
			r.Barrier()
			payload := runtime.Blank(int(bytes))
			for i := 0; i < count; i++ {
				r.Isend(dst, 0, payload)
			}
		case dst:
			reqs := make([]*mpi.Request, count)
			for i := range reqs {
				reqs[i] = r.Irecv(src, 0)
			}
			r.Barrier()
			start := r.Now()
			r.Waitall(reqs)
			elapsed = r.Now() - start
		default:
			r.Barrier()
		}
	})
	if err != nil {
		return 0, err
	}
	if elapsed > 0 {
		gbs = float64(count) * float64(bytes) / elapsed.Seconds() / 1e9
	}
	return gbs, nil
}
