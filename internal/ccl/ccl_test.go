package ccl

import (
	"math"
	"testing"

	"msgroofline/internal/machine"
	"msgroofline/internal/shmem"
	"msgroofline/internal/sim"
)

func newJobWithPlan(t *testing.T, machineName string, npes, maxElems int) (*shmem.Job, *Plan) {
	t.Helper()
	cfg, err := machine.Get(machineName)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(npes, maxElems)
	if err != nil {
		t.Fatal(err)
	}
	job, err := shmem.NewJob(cfg, npes, plan.HeapBytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Bind(job, 0); err != nil {
		t.Fatal(err)
	}
	return job, plan
}

func vec(pe, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(pe+1) * float64(i+1)
	}
	return v
}

// expected sum across PEs of vec(pe, n)[i] = (i+1) * sum(pe+1).
func expectedSum(npes, i int) float64 {
	return float64(i+1) * float64(npes*(npes+1)) / 2
}

func TestPlanValidation(t *testing.T) {
	if _, err := NewPlan(0, 8); err == nil {
		t.Fatal("0 PEs should fail")
	}
	if _, err := NewPlan(2, 0); err == nil {
		t.Fatal("0 elems should fail")
	}
	p, _ := NewPlan(4, 100)
	if err := p.Bind(nil, -1); err == nil {
		t.Fatal("negative base should fail")
	}
}

func TestAllReduceRing(t *testing.T) {
	for _, npes := range []int{1, 2, 3, 4} {
		const n = 103 // deliberately not divisible by npes
		job, plan := newJobWithPlan(t, "perlmutter-gpu", npes, n)
		results := make([][]float64, npes)
		err := job.Launch(func(sc *shmem.Ctx) {
			c := plan.NewCtx(sc)
			data := vec(sc.MyPE(), n)
			if err := c.AllReduce(data); err != nil {
				t.Error(err)
				return
			}
			results[sc.MyPE()] = data
		})
		if err != nil {
			t.Fatalf("npes=%d: %v", npes, err)
		}
		for pe, res := range results {
			for i := range res {
				want := expectedSum(npes, i)
				if math.Abs(res[i]-want) > 1e-9 {
					t.Fatalf("npes=%d pe=%d elem %d = %v, want %v", npes, pe, i, res[i], want)
				}
			}
		}
	}
}

func TestReduceScatterChunks(t *testing.T) {
	const npes, n = 4, 64
	job, plan := newJobWithPlan(t, "perlmutter-gpu", npes, n)
	bounds := make([][2]int, npes)
	data := make([][]float64, npes)
	err := job.Launch(func(sc *shmem.Ctx) {
		c := plan.NewCtx(sc)
		d := vec(sc.MyPE(), n)
		lo, hi, err := c.ReduceScatter(d)
		if err != nil {
			t.Error(err)
			return
		}
		bounds[sc.MyPE()] = [2]int{lo, hi}
		data[sc.MyPE()] = d
	})
	if err != nil {
		t.Fatal(err)
	}
	covered := make([]bool, n)
	for pe := 0; pe < npes; pe++ {
		lo, hi := bounds[pe][0], bounds[pe][1]
		for i := lo; i < hi; i++ {
			if covered[i] {
				t.Fatalf("element %d owned twice", i)
			}
			covered[i] = true
			want := expectedSum(npes, i)
			if math.Abs(data[pe][i]-want) > 1e-9 {
				t.Fatalf("pe %d elem %d = %v, want %v", pe, i, data[pe][i], want)
			}
		}
	}
	for i, c := range covered {
		if !c {
			t.Fatalf("element %d unowned", i)
		}
	}
}

func TestAllGather(t *testing.T) {
	const npes, n = 4, 40
	job, plan := newJobWithPlan(t, "summit-gpu", npes, n)
	results := make([][]float64, npes)
	err := job.Launch(func(sc *shmem.Ctx) {
		c := plan.NewCtx(sc)
		// Each PE fills only the chunk it owns after ReduceScatter,
		// (me+1) mod P, with a recognizable value.
		data := make([]float64, n)
		own := (sc.MyPE() + 1) % npes
		lo, hi := chunkBounds(n, npes, own)
		for i := lo; i < hi; i++ {
			data[i] = float64(own*1000 + i)
		}
		if err := c.allGather(data); err != nil {
			t.Error(err)
			return
		}
		results[sc.MyPE()] = data
	})
	if err != nil {
		t.Fatal(err)
	}
	for pe, res := range results {
		for chunk := 0; chunk < npes; chunk++ {
			lo, hi := chunkBounds(n, npes, chunk)
			for i := lo; i < hi; i++ {
				want := float64(chunk*1000 + i)
				if res[i] != want {
					t.Fatalf("pe %d elem %d = %v, want %v", pe, i, res[i], want)
				}
			}
		}
	}
}

func TestRepeatedCollectives(t *testing.T) {
	// Slot reuse across calls must stay correct.
	const npes, n = 3, 30
	job, plan := newJobWithPlan(t, "perlmutter-gpu", npes, n)
	final := make([][]float64, npes)
	err := job.Launch(func(sc *shmem.Ctx) {
		c := plan.NewCtx(sc)
		data := vec(sc.MyPE(), n)
		for round := 0; round < 3; round++ {
			if err := c.AllReduce(data); err != nil {
				t.Error(err)
				return
			}
		}
		final[sc.MyPE()] = data
	})
	if err != nil {
		t.Fatal(err)
	}
	// After k allreduces, value = (i+1) * (sum pe+1) * npes^(k-1).
	for pe, res := range final {
		for i := range res {
			want := expectedSum(npes, i) * math.Pow(float64(npes), 2)
			if math.Abs(res[i]-want) > 1e-6 {
				t.Fatalf("pe %d elem %d = %v, want %v", pe, i, res[i], want)
			}
		}
	}
}

func TestVectorTooLarge(t *testing.T) {
	job, plan := newJobWithPlan(t, "perlmutter-gpu", 2, 16)
	err := job.Launch(func(sc *shmem.Ctx) {
		c := plan.NewCtx(sc)
		if err := c.AllReduce(make([]float64, 17)); err == nil {
			t.Error("oversized vector should fail")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceBandwidthShape(t *testing.T) {
	// Ring allreduce moves 2(P-1)/P of the vector per PE; for a big
	// vector on Perlmutter GPU the effective bus bandwidth should be
	// within an order of the NVLink single-channel peak.
	const npes = 4
	const n = 1 << 16 // 512 KiB vector
	job, plan := newJobWithPlan(t, "perlmutter-gpu", npes, n)
	err := job.Launch(func(sc *shmem.Ctx) {
		c := plan.NewCtx(sc)
		data := vec(sc.MyPE(), n)
		if err := c.AllReduce(data); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := job.Elapsed()
	// Algorithm-bandwidth = bytes * 2(P-1)/P / time.
	moved := float64(8*n) * 2 * float64(npes-1) / float64(npes)
	algBW := moved / elapsed.Seconds() / 1e9
	if algBW < 2 || algBW > 30 {
		t.Fatalf("allreduce algorithm bandwidth = %.2f GB/s, outside plausible band", algBW)
	}
	if elapsed > sim.FromMicroseconds(500) {
		t.Fatalf("allreduce of 512 KiB took %v, suspiciously slow", elapsed)
	}
}
