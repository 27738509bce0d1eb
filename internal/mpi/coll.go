package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Collectives built from the same point-to-point machinery the
// workloads use, with the classic algorithms whose cost shapes the
// Message Roofline predicts: binomial trees for Bcast/Reduce
// (log2(P) latency terms), recursive doubling for Allreduce, a ring
// for Allgather (P-1 bandwidth terms), and pairwise exchange for
// Alltoall. Internal tags live in their own negative range so user
// traffic never collides with them.

const collTagBase = -1 << 20

// collTag derives a fresh internal tag for collective round `round`
// of this rank's seq-th collective call.
func (r *Rank) collTag(seq, round int) int {
	return collTagBase - (seq*64 + round)
}

// ReduceOp combines two byte-slices element-wise; out must be
// mutated in place. Payload semantics are the caller's business.
type ReduceOp func(acc, in []byte)

// SumFloat64 is a ReduceOp treating payloads as little-endian float64
// vectors.
func SumFloat64(acc, in []byte) {
	for i := 0; i+8 <= len(acc) && i+8 <= len(in); i += 8 {
		a := f64get(acc[i:])
		b := f64get(in[i:])
		f64put(acc[i:], a+b)
	}
}

// MaxFloat64 keeps the element-wise maximum.
func MaxFloat64(acc, in []byte) {
	for i := 0; i+8 <= len(acc) && i+8 <= len(in); i += 8 {
		a := f64get(acc[i:])
		b := f64get(in[i:])
		if b > a {
			f64put(acc[i:], b)
		}
	}
}

// Bcast broadcasts root's data to every rank using a binomial tree
// (ceil(log2 P) rounds) and returns the received payload (root gets
// its own buffer back).
func (r *Rank) Bcast(root int, data []byte) []byte {
	p := r.Size()
	if p == 1 {
		return data
	}
	seq := r.nextCollSeq()
	// Rotate so the root is virtual rank 0.
	vrank := (r.id - root + p) % p
	var buf []byte
	start := 1
	if vrank == 0 {
		buf = append([]byte(nil), data...)
	} else {
		// Receive from the parent, vrank less its highest set bit.
		hb := 1 << (bits.Len(uint(vrank)) - 1)
		buf = r.Recv((vrank-hb+root)%p, r.collTag(seq, bits.Len(uint(hb)))).Data
		start = hb << 1
	}
	// Forward to children: vrank + 2^k for growing k.
	for mask := start; vrank+mask < p; mask <<= 1 {
		r.isend((vrank+mask+root)%p, r.collTag(seq, bits.Len(uint(mask))), buf)
	}
	return buf
}

// Reduce combines every rank's contribution at root with op, via a
// binomial tree, and returns the result at root (nil elsewhere).
func (r *Rank) Reduce(root int, data []byte, op ReduceOp) []byte {
	p := r.Size()
	acc := append([]byte(nil), data...)
	if p == 1 {
		return acc
	}
	seq := r.nextCollSeq()
	vrank := (r.id - root + p) % p
	for mask := 1; mask < p; mask <<= 1 {
		if vrank&mask != 0 {
			parent := ((vrank - mask) + root) % p
			r.isend(parent, r.collTag(seq, bits.Len(uint(mask))), acc)
			return nil
		}
		if vrank+mask < p {
			child := ((vrank + mask) + root) % p
			req := r.Recv(child, r.collTag(seq, bits.Len(uint(mask))))
			op(acc, req.Data)
		}
	}
	if r.id == root {
		return acc
	}
	return nil
}

// Allreduce combines every rank's contribution with op and returns
// the result everywhere, using recursive doubling when P is a power
// of two and reduce+bcast otherwise.
func (r *Rank) Allreduce(data []byte, op ReduceOp) []byte {
	p := r.Size()
	acc := append([]byte(nil), data...)
	if p == 1 {
		return acc
	}
	if p&(p-1) != 0 {
		res := r.Reduce(0, acc, op)
		if r.id == 0 {
			return r.Bcast(0, res)
		}
		return r.Bcast(0, nil)
	}
	seq := r.nextCollSeq()
	for mask := 1; mask < p; mask <<= 1 {
		peer := r.id ^ mask
		tag := r.collTag(seq, bits.Len(uint(mask)))
		r.isend(peer, tag, acc)
		req := r.Recv(peer, tag)
		op(acc, req.Data)
	}
	return acc
}

// Allgather concatenates every rank's contribution in rank order via
// a ring (P-1 steps, bandwidth-optimal) and returns the full vector.
// All contributions must have the same length.
func (r *Rank) Allgather(data []byte) []byte {
	p := r.Size()
	n := len(data)
	out := make([]byte, n*p)
	copy(out[r.id*n:], data)
	if p == 1 {
		return out
	}
	seq := r.nextCollSeq()
	right := (r.id + 1) % p
	left := (r.id - 1 + p) % p
	// Pass block (id - step) around the ring.
	cur := append([]byte(nil), data...)
	curOwner := r.id
	for step := 0; step < p-1; step++ {
		tag := r.collTag(seq, step)
		r.isend(right, tag, cur)
		req := r.Recv(left, tag)
		curOwner = (curOwner - 1 + p) % p
		cur = req.Data
		if len(cur) != n {
			panic(fmt.Sprintf("mpi: Allgather contribution size %d != %d", len(cur), n))
		}
		copy(out[curOwner*n:], cur)
	}
	return out
}

// Alltoall delivers blocks[i] to rank i and returns the blocks
// received from every rank (own block included), using pairwise
// exchange over P-1 rounds.
func (r *Rank) Alltoall(blocks [][]byte) [][]byte {
	p := r.Size()
	if len(blocks) != p {
		panic(fmt.Sprintf("mpi: Alltoall needs %d blocks, got %d", p, len(blocks)))
	}
	out := make([][]byte, p)
	out[r.id] = append([]byte(nil), blocks[r.id]...)
	if p == 1 {
		return out
	}
	seq := r.nextCollSeq()
	for step := 1; step < p; step++ {
		// XOR schedule when P is a power of two, shifted otherwise.
		peer, from := (r.id+step)%p, (r.id-step+p)%p
		if p&(p-1) == 0 {
			peer, from = r.id^step, r.id^step
		}
		tag := r.collTag(seq, step)
		r.isend(peer, tag, blocks[peer])
		req := r.Recv(from, tag)
		out[req.Src] = req.Data
	}
	return out
}

// Gather collects every rank's equally sized contribution at root (in
// rank order); non-roots return nil.
func (r *Rank) Gather(root int, data []byte) []byte {
	p := r.Size()
	seq := r.nextCollSeq()
	if r.id != root {
		r.isend(root, r.collTag(seq, 0), data)
		return nil
	}
	out := make([]byte, len(data)*p)
	copy(out[root*len(data):], data)
	for i := 0; i < p-1; i++ {
		req := r.Recv(AnySource, r.collTag(seq, 0))
		copy(out[req.Src*len(req.Data):], req.Data)
	}
	return out
}

// Scatter distributes root's blocks (one per rank) and returns this
// rank's block.
func (r *Rank) Scatter(root int, blocks [][]byte) []byte {
	p := r.Size()
	seq := r.nextCollSeq()
	if r.id == root {
		if len(blocks) != p {
			panic(fmt.Sprintf("mpi: Scatter needs %d blocks, got %d", p, len(blocks)))
		}
		for i := 0; i < p; i++ {
			if i == root {
				continue
			}
			r.isend(i, r.collTag(seq, 0), blocks[i])
		}
		return append([]byte(nil), blocks[root]...)
	}
	return r.Recv(root, r.collTag(seq, 0)).Data
}

// nextCollSeq hands out the per-rank collective sequence number; all
// ranks call collectives in the same order (MPI's usual discipline),
// so equal seq values line up across ranks.
func (r *Rank) nextCollSeq() int {
	s := r.collSeq
	r.collSeq++
	return s
}

func f64get(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func f64put(b []byte, v float64) {
	binary.LittleEndian.PutUint64(b, math.Float64bits(v))
}
