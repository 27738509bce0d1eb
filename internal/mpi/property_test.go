package mpi

import (
	"math/rand"
	"testing"
	"testing/quick"

	"msgroofline/internal/machine"
	"msgroofline/internal/shmem"
	"msgroofline/internal/sim"
)

// Property: every message sent is received exactly once with intact
// payload, regardless of the (random) traffic pattern.
func TestPropertyExactlyOnceDelivery(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		p := int(nRaw%6) + 2     // 2..7 ranks
		msgs := int(mRaw%40) + 1 // messages per rank
		rng := rand.New(rand.NewSource(seed))
		// Plan: each rank sends msgs messages to random destinations
		// with random small payload; destinations know their counts.
		type planned struct {
			dst  int
			data byte
		}
		plan := make([][]planned, p)
		expect := make([]int, p)
		for r := 0; r < p; r++ {
			for i := 0; i < msgs; i++ {
				d := rng.Intn(p)
				plan[r] = append(plan[r], planned{dst: d, data: byte(rng.Intn(256))})
				expect[d]++
			}
		}
		c := newCommProp(p)
		sums := make([]int, p)
		wantSums := make([]int, p)
		for r := range plan {
			for _, pl := range plan[r] {
				wantSums[pl.dst] += int(pl.data)
			}
		}
		err := c.Launch(func(r *Rank) {
			for _, pl := range plan[r.Rank()] {
				r.Isend(pl.dst, 0, []byte{pl.data})
			}
			for i := 0; i < expect[r.Rank()]; i++ {
				req := r.Recv(AnySource, AnyTag)
				sums[r.Rank()] += int(req.Data[0])
			}
		})
		if err != nil {
			return false
		}
		for r := range sums {
			if sums[r] != wantSums[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: per (source, tag) pair, messages never overtake.
func TestPropertyNonOvertaking(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw%30) + 2
		c := newCommProp(2)
		rng := rand.New(rand.NewSource(seed))
		sizes := make([]int, k)
		for i := range sizes {
			sizes[i] = rng.Intn(2000) + 1
		}
		ok := true
		err := c.Launch(func(r *Rank) {
			if r.Rank() == 0 {
				for i := 0; i < k; i++ {
					payload := make([]byte, sizes[i])
					payload[0] = byte(i)
					r.Isend(1, 5, payload)
				}
				return
			}
			for i := 0; i < k; i++ {
				req := r.Recv(0, 5)
				if req.Data[0] != byte(i) || len(req.Data) != sizes[i] {
					ok = false
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: simulation time is deterministic for a given plan.
func TestPropertyDeterministicElapsed(t *testing.T) {
	f := func(seed int64) bool {
		run := func() sim.Time {
			c := newCommProp(4)
			rng := rand.New(rand.NewSource(seed))
			err := c.Launch(func(r *Rank) {
				local := rand.New(rand.NewSource(seed + int64(r.Rank())))
				for i := 0; i < 10; i++ {
					dst := local.Intn(4)
					r.Isend(dst, i, make([]byte, local.Intn(512)+1))
				}
				// Everyone receives 10 messages total? No: receive
				// exactly what was sent to us; compute counts from
				// the same seeds.
				expect := 0
				for src := 0; src < 4; src++ {
					srcRng := rand.New(rand.NewSource(seed + int64(src)))
					for i := 0; i < 10; i++ {
						d := srcRng.Intn(4)
						srcRng.Intn(512)
						if d == r.Rank() {
							expect++
						}
					}
				}
				for i := 0; i < expect; i++ {
					r.Recv(AnySource, AnyTag)
				}
			})
			_ = rng
			if err != nil {
				return -1
			}
			return c.Elapsed()
		}
		a, b := run(), run()
		return a == b && a >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: one-sided puts land exactly the bytes written, wherever
// the offsets fall.
func TestPropertyPutPlacement(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		j, err := shmem.NewJobSharded(machine.PerlmutterCPU, machine.OneSided, 2, 4096, 4096, 1)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		type put struct {
			off  int
			data []byte
		}
		var puts []put
		// Non-overlapping segments so final memory is predictable.
		cursor := 0
		for i := 0; i < n && cursor < 4000; i++ {
			sz := rng.Intn(64) + 1
			puts = append(puts, put{off: cursor, data: randBytes(rng, sz)})
			cursor += sz + rng.Intn(16)
		}
		err = j.Launch(func(c *shmem.Ctx) {
			if c.MyPE() != 0 {
				return
			}
			for _, pt := range puts {
				c.PutNBI(1, pt.off, pt.data)
			}
			c.Flush(1, 0)
		})
		if err != nil {
			return false
		}
		for _, pt := range puts {
			got := j.PE(1).View(pt.off, len(pt.data))
			for i := range pt.data {
				if got[i] != pt.data[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(255) + 1)
	}
	return b
}

// newCommProp builds a communicator without *testing.T plumbing (for
// quick.Check closures).
func newCommProp(n int) *Comm {
	cfg, err := machine.Get("perlmutter-cpu")
	if err != nil {
		panic(err)
	}
	c, err := NewCommSharded(cfg, n, 1)
	if err != nil {
		panic(err)
	}
	return c
}
