// Package ccl is an NCCL/RCCL-style GPU collective communication
// library built on the device-initiated shmem layer — the paper's
// stated future work ("assessing other communication patterns and
// libraries, e.g., AI applications using NCCL", §V). It implements
// the bandwidth-optimal ring algorithms NCCL uses:
//
//   - ReduceScatter: P-1 ring steps, each moving 1/P of the vector;
//   - AllReduce:     ReduceScatter + a P-1 step ring allgather
//     (2(P-1) steps, the classic 2·(P-1)/P bandwidth bound).
//
// Payloads are float64 vectors. Every operation carries real data and
// is verified in tests against a locally computed reduction.
package ccl

import (
	"encoding/binary"
	"fmt"
	"math"

	"msgroofline/internal/runtime"
	"msgroofline/internal/shmem"
)

// Plan reserves the symmetric-heap region a communicator needs:
// staging buffers for in-flight chunks and signal slots per ring
// step. Create the plan first, size the shmem Job heap with
// HeapBytes, then Bind.
type Plan struct {
	job      *shmem.Job
	base     int // start of our heap region
	maxElems int
	npes     int

	chunkCap int // bytes per staging slot
	slots    int // number of staging slots
}

// NewPlan describes collectives over float64 vectors of up to
// maxElems elements across npes PEs.
func NewPlan(npes, maxElems int) (*Plan, error) {
	if npes < 1 {
		return nil, fmt.Errorf("ccl: npes = %d", npes)
	}
	if maxElems < 1 {
		return nil, fmt.Errorf("ccl: maxElems = %d", maxElems)
	}
	chunkElems := (maxElems + npes - 1) / npes
	return &Plan{
		maxElems: maxElems,
		npes:     npes,
		chunkCap: 8 * chunkElems,
		slots:    2 * npes, // reduce-scatter + allgather steps
	}, nil
}

// HeapBytes is the symmetric-heap space the plan needs.
func (p *Plan) HeapBytes() int {
	return p.slots*p.chunkCap + 8*p.slots
}

// Bind attaches the plan to a job, claiming [base, base+HeapBytes()).
func (p *Plan) Bind(job *shmem.Job, base int) error {
	if job == nil {
		return fmt.Errorf("ccl: nil job")
	}
	if job.NPEs() != p.npes {
		return fmt.Errorf("ccl: plan for %d PEs bound to %d-PE job", p.npes, job.NPEs())
	}
	if base < 0 {
		return fmt.Errorf("ccl: negative base offset")
	}
	p.job = job
	p.base = base
	return nil
}

func (p *Plan) stagingOff(slot int) int { return p.base + slot*p.chunkCap }
func (p *Plan) sigOff(slot int) int     { return p.base + p.slots*p.chunkCap + 8*slot }

// Ctx is one PE's handle on the communicator during a kernel.
type Ctx struct {
	plan *Plan
	sc   *shmem.Ctx
	seq  uint64
	// scratch holds the chunk being put. A put stages its payload
	// before it returns, so the next chunk may overwrite it.
	scratch []byte
}

// NewCtx wraps a shmem context for collective calls. Each PE creates
// one inside the Launch body and must invoke the same sequence of
// collective operations.
func (p *Plan) NewCtx(sc *shmem.Ctx) *Ctx {
	return &Ctx{plan: p, sc: sc}
}

// chunkBounds splits n elements into npes contiguous chunks.
func chunkBounds(n, npes, chunk int) (lo, hi int) {
	per := (n + npes - 1) / npes
	lo = chunk * per
	hi = lo + per
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// addInto adds the float64s encoded in b to dst element-wise.
func addInto(dst []float64, b []byte) {
	for i := 0; i < len(dst) && 8*i+8 <= len(b); i++ {
		dst[i] += math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// ReduceScatter sums the data vectors of all PEs element-wise,
// leaving the fully reduced chunk (me+1) mod P in place, and returns
// that chunk's bounds [lo, hi) into the original vector. data is
// mutated: on return data[lo:hi] holds the fully reduced chunk.
func (c *Ctx) ReduceScatter(data []float64) (lo, hi int, err error) {
	p := c.plan
	np := p.npes
	if len(data) > p.maxElems {
		return 0, 0, fmt.Errorf("ccl: vector %d exceeds plan max %d", len(data), p.maxElems)
	}
	me := c.sc.MyPE()
	if np == 1 {
		return 0, len(data), nil
	}
	c.seq++
	right := (me + 1) % np
	for step := 0; step < np-1; step++ {
		sendChunk := (me - step + np) % np
		recvChunk := (me - step - 1 + np) % np
		slo, shi := chunkBounds(len(data), np, sendChunk)
		c.scratch = runtime.EncodeFloats(c.scratch, data[slo:shi])
		c.sc.PutSignalNBI(right, p.stagingOff(step), c.scratch, p.sigOff(step), c.seq)
		// Wait for the left neighbor's chunk for this step.
		c.sc.WaitUntilAll([]int{p.sigOff(step)}, c.seq)
		rlo, rhi := chunkBounds(len(data), np, recvChunk)
		addInto(data[rlo:rhi], c.sc.PE().Heap()[p.stagingOff(step):])
	}
	c.sc.Quiet()
	// Staging slots are reused by the next collective; make sure every
	// PE has consumed this call's chunks before anyone moves on.
	c.sc.Barrier()
	// After P-1 ring steps the fully reduced chunk is (me+1) mod P.
	lo, hi = chunkBounds(len(data), np, (me+1)%np)
	return lo, hi, nil
}

// allGather distributes each PE's chunk (me+1) mod P of data — the
// chunk ReduceScatter leaves reduced there — to every PE: on return
// the whole vector is complete everywhere.
func (c *Ctx) allGather(data []float64) error {
	p := c.plan
	np := p.npes
	if len(data) > p.maxElems {
		return fmt.Errorf("ccl: vector %d exceeds plan max %d", len(data), p.maxElems)
	}
	if np == 1 {
		return nil
	}
	me := c.sc.MyPE()
	c.seq++
	right := (me + 1) % np
	for step := 0; step < np-1; step++ {
		// Step 0 sends my own chunk; step s forwards the chunk that
		// arrived at step s-1, which originated s PEs to the left.
		sendChunk := ((me+1-step)%np + np) % np
		slot := np - 1 + step // distinct slots from ReduceScatter steps
		slo, shi := chunkBounds(len(data), np, sendChunk)
		c.scratch = runtime.EncodeFloats(c.scratch, data[slo:shi])
		c.sc.PutSignalNBI(right, p.stagingOff(slot), c.scratch, p.sigOff(slot), c.seq)
		c.sc.WaitUntilAll([]int{p.sigOff(slot)}, c.seq)
		recvChunk := (sendChunk - 1 + np) % np
		rlo, rhi := chunkBounds(len(data), np, recvChunk)
		off := p.stagingOff(slot)
		runtime.DecodeFloats(data[rlo:rhi], c.sc.PE().Heap()[off:off+8*(rhi-rlo)])
	}
	c.sc.Quiet()
	c.sc.Barrier()
	return nil
}

// AllReduce sums the vectors of all PEs element-wise, leaving the full
// result on every PE (ring reduce-scatter + ring allgather).
func (c *Ctx) AllReduce(data []float64) error {
	if _, _, err := c.ReduceScatter(data); err != nil {
		return err
	}
	return c.allGather(data)
}
