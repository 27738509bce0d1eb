// Package stencil implements the paper's first workload: a 2-D
// 5-point Jacobi stencil on a square grid with a 2-D process
// decomposition (§III-A). Three variants share one communication
// design, as in the paper:
//
//   - two-sided CPU: four MPI_Isend + four MPI_Irecv + MPI_Waitall;
//   - one-sided CPU: four MPI_Put inside a MPI_Win_fence epoch;
//   - GPU: nvshmem put-with-signal + wait_until_all.
//
// The workload runs in two modes. With Verify set, ranks hold real
// local grids, exchange real halos, and the result is checked against
// a serial reference (tests use small grids). Without Verify, the
// paper-scale 16384x16384 grid is modeled: halo messages carry the
// right byte counts and compute time is charged from the cell rate,
// but no giant arrays are allocated.
package stencil

import (
	"fmt"
	"math"

	"msgroofline/internal/comm"
	"msgroofline/internal/machine"
	"msgroofline/internal/runtime"
	"msgroofline/internal/sim"
	"msgroofline/internal/trace"
)

// CPUCellRate is the memory-bandwidth-limited Jacobi update rate of
// one CPU rank (cells per second). Stencils are bandwidth-bound
// (§III-A), so this models streaming rather than flops.
const CPUCellRate = 5e8

// Config describes one stencil run.
type Config struct {
	// Machine is the target platform from the catalog.
	Machine *machine.Config
	// Transport selects the communication stack the one kernel runs
	// on (comm.TwoSided, comm.OneSided, comm.Notified, comm.Shmem).
	Transport comm.Kind
	// Grid is the global edge length (paper: 16384).
	Grid int
	// Iters is the number of Jacobi iterations.
	Iters int
	// PX, PY decompose ranks into a 2-D grid; PX*PY ranks run.
	PX, PY int
	// Verify allocates real grids and checks the result against the
	// serial reference. Use small Grid values with it.
	Verify bool
	// Shards is the window worker parallelism of the simulated world
	// (0 means 1; results are byte-identical at every value — see
	// comm.Spec.Shards).
	Shards int
	// Chaos is the conformance harness's disorder (comm.Spec.Chaos);
	// the zero value leaves runs byte-identical.
	Chaos runtime.Chaos
}

// Result summarizes one run.
type Result struct {
	// Elapsed is the total simulated solve time.
	Elapsed sim.Time
	// PerIter is Elapsed / Iters.
	PerIter sim.Time
	// Comm summarizes the recorded halo messages.
	Comm trace.Summary
	// Checksum is the sum of all interior cells after the run
	// (Verify mode only), identical across variants.
	Checksum float64
	// Ranks is the number of processes used.
	Ranks int
	// EventDigest is the engine's event-order fingerprint
	// (sim.Engine.Digest) captured after the run; the shard-determinism
	// suite compares it across shard counts.
	EventDigest uint64

	rec *trace.Recorder
}

// Matrix builds the per-(src, dst) halo traffic heat map from the run's
// trace. It is built on demand, so runs that never read it pay nothing.
func (r *Result) Matrix() *trace.TrafficMatrix { return r.rec.Matrix(r.Ranks) }

func (c Config) validate() error {
	if c.Machine == nil {
		return fmt.Errorf("stencil: nil machine")
	}
	if c.Grid < 1 || c.Iters < 1 || c.PX < 1 || c.PY < 1 {
		return fmt.Errorf("stencil: bad config %+v", c)
	}
	if c.Grid%c.PX != 0 || c.Grid%c.PY != 0 {
		return fmt.Errorf("stencil: grid %d not divisible by process grid %dx%d", c.Grid, c.PX, c.PY)
	}
	return nil
}

// ranks and neighbor helpers ------------------------------------------------

type layout struct {
	px, py, nx, ny int // process grid; local tile size (nx columns, ny rows)
}

func (l layout) coords(rank int) (rx, ry int) { return rank % l.px, rank / l.px }

// neighbors returns the ranks of west, east, north, south (or -1).
func (l layout) neighbors(rank int) [4]int {
	rx, ry := l.coords(rank)
	out := [4]int{-1, -1, -1, -1}
	if rx > 0 {
		out[0] = rank - 1
	}
	if rx < l.px-1 {
		out[1] = rank + 1
	}
	if ry > 0 {
		out[2] = rank - l.px
	}
	if ry < l.py-1 {
		out[3] = rank + l.px
	}
	return out
}

// haloBytes returns the message size toward each neighbor direction:
// west/east carry a column (ny cells), north/south a row (nx cells).
func (l layout) haloBytes(dir int) int64 {
	if dir < 2 {
		return int64(8 * l.ny)
	}
	return int64(8 * l.nx)
}

// computeTime is the per-iteration local update cost for one rank.
func computeTime(l layout, cfg Config) sim.Time {
	cells := float64(l.nx) * float64(l.ny)
	if cfg.Machine.Kind == machine.GPU && cfg.Machine.GPU != nil {
		g := cfg.Machine.GPU
		return g.KernelLaunch + sim.FromSeconds(cells/(CPUCellRate*g.ComputeScale))
	}
	return sim.FromSeconds(cells / CPUCellRate)
}

// tile is a local grid with one ghost ring (Verify mode).
type tile struct {
	nx, ny int
	cur    []float64
	next   []float64
}

func newTile(nx, ny int) *tile {
	return &tile{nx: nx, ny: ny,
		cur:  make([]float64, (nx+2)*(ny+2)),
		next: make([]float64, (nx+2)*(ny+2)),
	}
}

func (t *tile) idx(i, j int) int { return (j+1)*(t.nx+2) + (i + 1) }

// initTile fills the tile with the deterministic global initial
// condition (a function of global coordinates).
func (t *tile) initTile(l layout, rank, grid int) {
	rx, ry := l.coords(rank)
	for j := 0; j < t.ny; j++ {
		for i := 0; i < t.nx; i++ {
			gi := rx*t.nx + i
			gj := ry*t.ny + j
			t.cur[t.idx(i, j)] = initial(gi, gj, grid)
		}
	}
}

func initial(gi, gj, grid int) float64 {
	return math.Sin(float64(gi+1)*0.37) * math.Cos(float64(gj+1)*0.23)
}

// step performs one Jacobi update of the interior using the ghost
// ring and swaps buffers.
func (t *tile) step() {
	w := t.nx + 2
	for j := 0; j < t.ny; j++ {
		for i := 0; i < t.nx; i++ {
			c := t.idx(i, j)
			t.next[c] = 0.25 * (t.cur[c-1] + t.cur[c+1] + t.cur[c-w] + t.cur[c+w])
		}
	}
	t.cur, t.next = t.next, t.cur
}

// halo extraction and injection. Directions: 0 west, 1 east, 2 north,
// 3 south.
func (t *tile) extract(dir int) []float64 {
	switch dir {
	case 0:
		out := make([]float64, t.ny)
		for j := 0; j < t.ny; j++ {
			out[j] = t.cur[t.idx(0, j)]
		}
		return out
	case 1:
		out := make([]float64, t.ny)
		for j := 0; j < t.ny; j++ {
			out[j] = t.cur[t.idx(t.nx-1, j)]
		}
		return out
	case 2:
		out := make([]float64, t.nx)
		for i := 0; i < t.nx; i++ {
			out[i] = t.cur[t.idx(i, 0)]
		}
		return out
	default:
		out := make([]float64, t.nx)
		for i := 0; i < t.nx; i++ {
			out[i] = t.cur[t.idx(i, t.ny-1)]
		}
		return out
	}
}

// inject writes a received halo into the ghost ring. dir is the
// direction the data came FROM (0 = from west neighbor -> west ghost
// column).
func (t *tile) inject(dir int, data []float64) {
	switch dir {
	case 0:
		for j := 0; j < t.ny; j++ {
			t.cur[t.idx(-1, j)] = data[j]
		}
	case 1:
		for j := 0; j < t.ny; j++ {
			t.cur[t.idx(t.nx, j)] = data[j]
		}
	case 2:
		for i := 0; i < t.nx; i++ {
			t.cur[t.idx(i, -1)] = data[i]
		}
	default:
		for i := 0; i < t.nx; i++ {
			t.cur[t.idx(i, t.ny)] = data[i]
		}
	}
}

func (t *tile) checksum() float64 {
	s := 0.0
	for j := 0; j < t.ny; j++ {
		for i := 0; i < t.nx; i++ {
			s += t.cur[t.idx(i, j)]
		}
	}
	return s
}

// opposite maps a direction to the neighbor's view of it.
func opposite(dir int) int { return dir ^ 1 }

// SerialReference runs the same Jacobi iteration on a single global
// grid, returning its checksum — the ground truth for Verify runs.
func SerialReference(grid, iters int) float64 {
	t := newTile(grid, grid)
	t.initTile(layout{px: 1, py: 1, nx: grid, ny: grid}, 0, grid)
	for k := 0; k < iters; k++ {
		t.step()
	}
	return t.checksum()
}
