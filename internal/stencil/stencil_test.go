package stencil

import (
	"math"
	goruntime "runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"testing"

	"msgroofline/internal/comm"
	"msgroofline/internal/machine"
	"msgroofline/internal/runtime"
)

func mc(t *testing.T, name string) *machine.Config {
	t.Helper()
	c, err := machine.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestValidate(t *testing.T) {
	pm := mc(t, "perlmutter-cpu")
	bad := []Config{
		{Machine: nil, Grid: 64, Iters: 1, PX: 2, PY: 2},
		{Machine: pm, Grid: 0, Iters: 1, PX: 2, PY: 2},
		{Machine: pm, Grid: 64, Iters: 0, PX: 2, PY: 2},
		{Machine: pm, Grid: 65, Iters: 1, PX: 2, PY: 2}, // not divisible
	}
	for _, c := range bad {
		if _, err := Run(c); err == nil {
			t.Fatalf("config %+v should fail", c)
		}
	}
}

func TestLayoutNeighbors(t *testing.T) {
	l := layout{px: 3, py: 2, nx: 4, ny: 4}
	// Rank 0 = corner: only east and south.
	n0 := l.neighbors(0)
	if n0[0] != -1 || n0[1] != 1 || n0[2] != -1 || n0[3] != 3 {
		t.Fatalf("corner neighbors = %v", n0)
	}
	// Rank 4 = middle bottom: west, east, north.
	n4 := l.neighbors(4)
	if n4[0] != 3 || n4[1] != 5 || n4[2] != 1 || n4[3] != -1 {
		t.Fatalf("rank 4 neighbors = %v", n4)
	}
}

func TestSerialReferenceConverges(t *testing.T) {
	// Jacobi averaging with zero boundary decays toward zero.
	a := SerialReference(32, 1)
	b := SerialReference(32, 50)
	if math.Abs(b) >= math.Abs(a) {
		t.Fatalf("no decay: %v -> %v", a, b)
	}
}

func TestTwoSidedMatchesSerial(t *testing.T) {
	cfg := Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.TwoSided, Grid: 48, Iters: 5, PX: 4, PY: 4, Verify: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := SerialReference(48, 5)
	if math.Abs(res.Checksum-want) > 1e-9 {
		t.Fatalf("checksum %v, serial %v", res.Checksum, want)
	}
}

func TestOneSidedMatchesSerial(t *testing.T) {
	cfg := Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.OneSided, Grid: 48, Iters: 5, PX: 4, PY: 4, Verify: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := SerialReference(48, 5)
	if math.Abs(res.Checksum-want) > 1e-9 {
		t.Fatalf("checksum %v, serial %v", res.Checksum, want)
	}
}

func TestGPUMatchesSerial(t *testing.T) {
	cfg := Config{Machine: mc(t, "perlmutter-gpu"), Transport: comm.Shmem, Grid: 48, Iters: 6, PX: 2, PY: 2, Verify: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := SerialReference(48, 6)
	if math.Abs(res.Checksum-want) > 1e-9 {
		t.Fatalf("checksum %v, serial %v", res.Checksum, want)
	}
}

func TestGPURejectsCPUMachine(t *testing.T) {
	cfg := Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.Shmem, Grid: 16, Iters: 1, PX: 2, PY: 2}
	if _, err := Run(cfg); err == nil {
		t.Fatal("shmem transport on a CPU machine should fail")
	}
}

func TestMsgsPerSyncIsFour(t *testing.T) {
	// Table II: stencil has 4 msgs/sync for interior ranks. On a
	// 4x4 grid the average over edge ranks is 3, interior 4.
	cfg := Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.TwoSided, Grid: 64, Iters: 3, PX: 4, PY: 4}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 16 ranks x 3 iters syncs; total messages = 2*edges*iters =
	// 2*(2*3*4)*3.
	if res.Comm.Syncs != 48 {
		t.Fatalf("syncs = %d", res.Comm.Syncs)
	}
	if res.Comm.Messages != 144 {
		t.Fatalf("messages = %d, want 144", res.Comm.Messages)
	}
	if res.Comm.MsgsPerSync < 2.5 || res.Comm.MsgsPerSync > 4.0 {
		t.Fatalf("msg/sync = %.2f, want ~3-4", res.Comm.MsgsPerSync)
	}
}

// TestOneSidedSteadyStateAllocs counts the mallocs of a timing-only
// one-sided stencil at 2, 6 and 20 iterations. Once its records are
// warm an iteration allocates nothing, barrier rounds included (a
// round's landing is bound once and counts its signals), so the longer
// runs must make exactly as many mallocs as the 2-iteration one.
//
// It counts only in builds without the race detector. The race runtime
// allocates on its own and at random: its sync.Pool drops a quarter of
// the values put back, so Launch's per-rank process names sometimes
// need a new fmt printer, and it allocates goroutine and thread records
// at other times than a plain build. Under -race the difference swung
// from -8 to 33 over a dozen pairs.
//
// On a loaded host a plain build allocates at random too, and the
// runs count with one P for it. sync.Pool keeps a value in the private
// slot of the P that put it back, which no other P takes; a run that
// the scheduler moved to another P needed a new fmt printer (a 208-
// and a 16-byte malloc) and counted 1029 against 1027. The runtime
// also allocates when it starts an OS thread (its m and two g records,
// five mallocs: 1032 against 1027), so a run during which the thread
// count grew is taken again.
func TestOneSidedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates at random; allocations are counted without -race")
	}
	cfg := Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.OneSided, Grid: 64, PX: 4, PY: 4}
	threads := pprof.Lookup("threadcreate")
	mallocs := func(iters int) int64 {
		cfg.Iters = iters
		const tries = 5
		for range tries {
			var before, after goruntime.MemStats
			started := threads.Count()
			goruntime.ReadMemStats(&before)
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			goruntime.ReadMemStats(&after)
			if threads.Count() == started {
				return int64(after.Mallocs - before.Mallocs)
			}
		}
		t.Fatalf("the runtime started an OS thread in each of %d runs at %d iterations", tries, iters)
		return 0
	}
	// A collection empties sync.Pools (fmt's printers among them), which
	// then allocate again; with none during the runs, every one starts
	// from the same pools.
	goruntime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	mallocs(2) // warm package-level pools
	two := mallocs(2)
	for _, iters := range []int{6, 20} {
		if m := mallocs(iters); m != two {
			t.Errorf("%d mallocs at 2 iterations, %d at %d: want no more", two, m, iters)
		}
	}
}

func TestTwoAndOneSidedComparableOnCPU(t *testing.T) {
	// §III-A: stencils are bandwidth/compute-bound, so one- and
	// two-sided perform about equally on CPUs.
	cfg := Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.TwoSided, Grid: 2048, Iters: 4, PX: 4, PY: 4}
	two, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Transport = comm.OneSided
	one, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(one.Elapsed) / float64(two.Elapsed)
	if ratio < 0.9 || ratio > 1.2 {
		t.Fatalf("one-sided/two-sided = %.2f, want ~1 (both compute-bound)", ratio)
	}
}

func TestGPUFasterThanCPU(t *testing.T) {
	// Fig 5: GPUs win from parallelism and bandwidth.
	cpu, err := Run(Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.TwoSided, Grid: 2048, Iters: 4, PX: 4, PY: 1})
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := Run(Config{Machine: mc(t, "perlmutter-gpu"), Transport: comm.Shmem, Grid: 2048, Iters: 4, PX: 4, PY: 1})
	if err != nil {
		t.Fatal(err)
	}
	if gpu.Elapsed >= cpu.Elapsed {
		t.Fatalf("GPU (%v) should beat CPU (%v) at equal rank count", gpu.Elapsed, cpu.Elapsed)
	}
	speedup := float64(cpu.Elapsed) / float64(gpu.Elapsed)
	if speedup < 5 {
		t.Fatalf("GPU speedup = %.1fx, want substantial", speedup)
	}
}

func TestStrongScaling(t *testing.T) {
	// More ranks -> less time (compute-dominated regime).
	base, err := Run(Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.TwoSided, Grid: 2048, Iters: 3, PX: 2, PY: 2})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.TwoSided, Grid: 2048, Iters: 3, PX: 8, PY: 8})
	if err != nil {
		t.Fatal(err)
	}
	if big.Elapsed >= base.Elapsed {
		t.Fatalf("no strong scaling: 4 ranks %v vs 64 ranks %v", base.Elapsed, big.Elapsed)
	}
	if sp := float64(base.Elapsed) / float64(big.Elapsed); sp < 4 {
		t.Fatalf("scaling 4->64 ranks only %.1fx", sp)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := []float64{0, -1.5, math.Pi, 1e300, math.Inf(1)}
	out := runtime.DecodeFloats(nil, runtime.EncodeFloats(nil, in))
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("round trip broke at %d: %v != %v", i, out[i], in[i])
		}
	}
}

func TestHaloExtractInject(t *testing.T) {
	a := newTile(3, 2)
	for j := 0; j < 2; j++ {
		for i := 0; i < 3; i++ {
			a.cur[a.idx(i, j)] = float64(10*j + i)
		}
	}
	east := a.extract(1)
	if east[0] != 2 || east[1] != 12 {
		t.Fatalf("east halo = %v", east)
	}
	b := newTile(3, 2)
	b.inject(0, east) // east halo of a becomes west ghost of b
	if b.cur[b.idx(-1, 0)] != 2 || b.cur[b.idx(-1, 1)] != 12 {
		t.Fatal("inject west ghost failed")
	}
}

func TestGPUInitiatedBeatsHostStaged(t *testing.T) {
	// §I: host-staged communication (device->host, MPI, host->device)
	// is the traditional multi-GPU path; GPU-initiated NVSHMEM beats
	// it on latency. the two-sided transport on a GPU machine IS the host-staged
	// variant: the transport is host-initiated MPI routed through the
	// host node, while compute still runs at GPU rates.
	cfg := Config{Machine: mc(t, "perlmutter-gpu"), Transport: comm.TwoSided, Grid: 2048, Iters: 4, PX: 2, PY: 2}
	staged, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Transport = comm.Shmem
	direct, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Elapsed >= staged.Elapsed {
		t.Fatalf("GPU-initiated (%v) should beat host-staged (%v)", direct.Elapsed, staged.Elapsed)
	}
	// Host-staged correctness: verified numerics still hold.
	v := Config{Machine: mc(t, "perlmutter-gpu"), Transport: comm.TwoSided, Grid: 48, Iters: 5, PX: 2, PY: 2, Verify: true}
	res, err := Run(v)
	if err != nil {
		t.Fatal(err)
	}
	want := SerialReference(48, 5)
	if d := res.Checksum - want; d > 1e-9 || d < -1e-9 {
		t.Fatalf("host-staged checksum mismatch: %v vs %v", res.Checksum, want)
	}
}

func TestHaloTrafficMatrixIsNeighborOnly(t *testing.T) {
	cfg := Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.TwoSided, Grid: 64, Iters: 2, PX: 4, PY: 4}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Matrix()
	if tm == nil {
		t.Fatal("no traffic matrix")
	}
	l := layout{px: 4, py: 4, nx: 16, ny: 16}
	for s := 0; s < 16; s++ {
		nbrs := l.neighbors(s)
		for d := 0; d < 16; d++ {
			sent := tm.At(s, d).Messages > 0
			if isNbr := slices.Contains(nbrs[:], d); sent != isNbr {
				t.Fatalf("rank %d -> %d: sent halo traffic %v, neighbor %v", s, d, sent, isNbr)
			}
		}
	}
}
