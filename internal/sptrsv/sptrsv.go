// Package sptrsv implements the paper's second workload: distributed
// sparse triangular solve over a supernodal elimination DAG (§III-B).
// Supernodes are distributed block-cyclically; solving one supernode
// produces one contribution message per dependent supernode owned by
// another rank. Three variants reproduce the paper's designs:
//
//   - two-sided CPU: MPI_Isend per contribution, the receiver calling
//     MPI_Recv in a loop sized by its expected message count;
//   - one-sided CPU: the strict 4-op protocol per message (Put data,
//     Win_flush, Put signal, Win_flush) plus the user-implemented
//     receiver acknowledgment of Listing 1 — a polling scan over the
//     remaining signal slots whose cost is charged per wakeup;
//   - GPU: nvshmem put-with-signal + wait_until_any in a loop.
//
// All variants carry real numerics: the assembled solution is checked
// against the serial reference solve.
package sptrsv

import (
	"fmt"
	"math"

	"msgroofline/internal/comm"
	"msgroofline/internal/machine"
	"msgroofline/internal/runtime"
	"msgroofline/internal/sim"
	"msgroofline/internal/spmat"
	"msgroofline/internal/trace"
)

// Defaults for the cost model.
const (
	// DefaultCPUFlopRate is the effective flop rate of one CPU rank
	// on the irregular supernodal kernels.
	DefaultCPUFlopRate = 4e9
	// DefaultGPUSparseScale is the per-GPU throughput advantage over
	// one CPU rank for sparse triangular kernels. Irregular solves
	// do not enjoy dense-kernel speedups; the paper's Fig 8 single
	// GPU beating 32 CPU ranks pins this to order 10-20x.
	DefaultGPUSparseScale = 10
	// DefaultPollCheck is the cost of inspecting one signal slot in
	// the Listing-1 receiver acknowledgment loop.
	DefaultPollCheck = 40 * sim.Nanosecond
)

// Config describes one distributed solve.
type Config struct {
	Machine *machine.Config
	// Transport selects the communication stack the one kernel runs
	// on (comm.TwoSided, comm.OneSided, comm.Notified, comm.Shmem).
	Transport comm.Kind
	Matrix    *spmat.SupTri
	// Ranks is the number of MPI ranks or GPU PEs.
	Ranks int
	// PollCheck overrides DefaultPollCheck when nonzero; the
	// free-polling ablation passes a negative value to zero it.
	PollCheck sim.Time
	// Shards is the window worker parallelism of the simulated world
	// (0 means 1; results are byte-identical at every value — see
	// comm.Spec.Shards).
	Shards int
	// Chaos is the conformance harness's disorder (comm.Spec.Chaos);
	// the zero value leaves runs byte-identical.
	Chaos runtime.Chaos
}

func (c *Config) fill() error {
	if c.Machine == nil || c.Matrix == nil {
		return fmt.Errorf("sptrsv: nil machine or matrix")
	}
	if c.Ranks < 1 {
		return fmt.Errorf("sptrsv: ranks = %d", c.Ranks)
	}
	switch {
	case c.PollCheck == 0:
		c.PollCheck = DefaultPollCheck
	case c.PollCheck < 0:
		c.PollCheck = 0
	}
	return nil
}

// Result summarizes one solve.
type Result struct {
	// Elapsed is the simulated SOLVE time.
	Elapsed sim.Time
	// Comm summarizes contribution messages.
	Comm trace.Summary
	// X is the assembled solution (for verification).
	X []float64
	// Ranks is the number of processes used.
	Ranks int
	// EventDigest is the engine's event-order fingerprint
	// (sim.Engine.Digest) captured after the run; the shard-determinism
	// suite compares it across shard counts.
	EventDigest uint64

	rec *trace.Recorder
}

// Matrix builds the per-(src, dst) traffic heat map of the solve from
// its trace. It is built on demand, so runs that never read it pay
// nothing.
func (r *Result) Matrix() *trace.TrafficMatrix { return r.rec.Matrix(r.Ranks) }

// Rhs builds the deterministic right-hand side used by all runs.
func Rhs(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i)*0.11) + 1.5
	}
	return b
}

// owner maps supernode j to its block-cyclic owner.
func owner(j, ranks int) int { return j % ranks }

// edge is one DAG dependency (contribution from parent to child).
type edge struct{ child, parent int }

// remoteIncoming enumerates, for every rank, the incoming remote
// edges in deterministic (child, parent) order; the returned map
// gives each edge its slot index at the receiving rank. Senders and
// receivers derive identical numbering from the replicated symbolic
// structure, exactly as SuperLU_DIST precomputes its metadata.
func remoteIncoming(m *spmat.SupTri, ranks int) (perRank [][]edge, slotOf map[edge]int) {
	perRank = make([][]edge, ranks)
	slotOf = make(map[edge]int)
	for child := 0; child < m.NumSupernodes(); child++ {
		r := owner(child, ranks)
		for _, parent := range m.Parents[child] {
			if owner(parent, ranks) == r {
				continue
			}
			e := edge{child: child, parent: parent}
			slotOf[e] = len(perRank[r])
			perRank[r] = append(perRank[r], e)
		}
	}
	return perRank, slotOf
}

// maxSnodeSize returns the largest supernode size (slot stride).
func maxSnodeSize(m *spmat.SupTri) int {
	max := 1
	for _, sn := range m.Snodes {
		if sn.Size() > max {
			max = sn.Size()
		}
	}
	return max
}

// solveState is the per-rank numeric state shared by all variants.
type solveState struct {
	cfg       *Config
	m         *spmat.SupTri
	rank      int
	ranks     int
	lsum      map[int][]float64 // accumulated rhs per owned supernode
	remaining map[int]int       // outstanding parent contributions
	x         []float64         // global solution (shared across ranks)
	flopRate  float64
}

func newSolveState(cfg *Config, rank int, x []float64, flopRate float64) *solveState {
	s := &solveState{
		cfg: cfg, m: cfg.Matrix, rank: rank, ranks: cfg.Ranks,
		lsum: map[int][]float64{}, remaining: map[int]int{},
		x: x, flopRate: flopRate,
	}
	b := Rhs(cfg.Matrix.N)
	for j := 0; j < cfg.Matrix.NumSupernodes(); j++ {
		if owner(j, cfg.Ranks) != rank {
			continue
		}
		sn := cfg.Matrix.Snodes[j]
		seg := make([]float64, sn.Size())
		copy(seg, b[sn.Begin:sn.End])
		s.lsum[j] = seg
		s.remaining[j] = len(cfg.Matrix.Parents[j])
	}
	return s
}

// readyRoots returns owned supernodes with no parents at all.
func (s *solveState) readyRoots() []int {
	var out []int
	for j, rem := range s.remaining {
		if rem == 0 {
			out = append(out, j)
		}
	}
	// Deterministic order.
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k] < out[k-1]; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}

// flopTime converts flops to simulated compute time.
func (s *solveState) flopTime(fl int64) sim.Time {
	return sim.FromSeconds(float64(fl) / s.flopRate)
}

// accumulate applies a remote contribution to child and reports
// whether the child became ready.
func (s *solveState) accumulate(child int, u []float64) bool {
	seg := s.lsum[child]
	for i := range u {
		seg[i] -= u[i]
	}
	s.remaining[child]--
	return s.remaining[child] == 0
}

// solveLocal solves supernode j (assumed ready): runs the diagonal
// solve, stores x, and returns the per-dependent update payloads with
// their destinations. The caller charges compute via the returned
// flop count and transmits/applies the updates.
type update struct {
	child   int
	dst     int // owning rank of child
	payload []float64
}

func (s *solveState) solveLocal(j int) (ups []update, flops int64) {
	seg := s.lsum[j]
	s.m.SolveDiag(j, seg)
	sn := s.m.Snodes[j]
	copy(s.x[sn.Begin:sn.End], seg)
	flops = s.m.FlopsSolve(j)
	for _, child := range s.m.Dependents[j] {
		flops += s.m.FlopsUpdate(child, j)
		ups = append(ups, update{
			child:   child,
			dst:     owner(child, s.ranks),
			payload: s.m.UpdateVector(child, j, seg),
		})
	}
	return ups, flops
}
