package sptrsv

import (
	"math"
	"testing"

	"msgroofline/internal/comm"
	"msgroofline/internal/machine"
	"msgroofline/internal/spmat"
)

func testMatrix(t *testing.T) *spmat.SupTri {
	t.Helper()
	m, err := spmat.Generate(spmat.Params{N: 1200, MeanSnode: 16, Fill: 1.2, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mc(t *testing.T, name string) *machine.Config {
	t.Helper()
	c, err := machine.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func verify(t *testing.T, m *spmat.SupTri, x []float64) {
	t.Helper()
	want, err := m.SolveSerial(Rhs(m.N))
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i := range x {
		if d := math.Abs(x[i] - want[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-9 {
		t.Fatalf("solution deviates from serial by %g", worst)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("nil config should fail")
	}
	if _, err := Run(Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.TwoSided, Matrix: testMatrix(t), Ranks: 0}); err == nil {
		t.Fatal("0 ranks should fail")
	}
	if _, err := Run(Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.Shmem, Matrix: testMatrix(t), Ranks: 2}); err == nil {
		t.Fatal("shmem transport on CPU machine should fail")
	}
}

func TestRemoteIncomingDeterministic(t *testing.T) {
	m := testMatrix(t)
	per, slots := remoteIncoming(m, 4)
	per2, slots2 := remoteIncoming(m, 4)
	if len(slots) != len(slots2) {
		t.Fatal("nondeterministic enumeration")
	}
	for e, s := range slots {
		if slots2[e] != s {
			t.Fatal("slot mismatch")
		}
		if owner(e.child, 4) == owner(e.parent, 4) {
			t.Fatal("local edge enumerated as remote")
		}
	}
	total := 0
	for r := range per {
		total += len(per[r])
		if len(per[r]) != len(per2[r]) {
			t.Fatal("per-rank count mismatch")
		}
	}
	if total != len(slots) {
		t.Fatal("slot count mismatch")
	}
}

func TestTwoSidedSolveCorrectSingleRank(t *testing.T) {
	m := testMatrix(t)
	res, err := Run(Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.TwoSided, Matrix: m, Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	verify(t, m, res.X)
	if res.Comm.Messages != 0 {
		t.Fatalf("single rank sent %d messages", res.Comm.Messages)
	}
}

func TestTwoSidedSolveCorrectParallel(t *testing.T) {
	m := testMatrix(t)
	for _, p := range []int{2, 4, 8} {
		res, err := Run(Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.TwoSided, Matrix: m, Ranks: p})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		verify(t, m, res.X)
		if res.Comm.Messages == 0 {
			t.Fatalf("P=%d: no messages traced", p)
		}
	}
}

func TestOneSidedSolveCorrect(t *testing.T) {
	m := testMatrix(t)
	for _, p := range []int{2, 8} {
		res, err := Run(Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.OneSided, Matrix: m, Ranks: p})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		verify(t, m, res.X)
	}
}

func TestGPUSolveCorrect(t *testing.T) {
	m := testMatrix(t)
	for _, p := range []int{1, 4} {
		res, err := Run(Config{Machine: mc(t, "perlmutter-gpu"), Transport: comm.Shmem, Matrix: m, Ranks: p})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		verify(t, m, res.X)
	}
}

func TestOneMessagePerSync(t *testing.T) {
	// Table II: SpTRSV has 1 msg/sync.
	m := testMatrix(t)
	res, err := Run(Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.TwoSided, Matrix: m, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.MsgsPerSync < 0.99 || res.Comm.MsgsPerSync > 1.01 {
		t.Fatalf("msg/sync = %.2f, want 1", res.Comm.MsgsPerSync)
	}
}

func TestMessageSizesMatchDAG(t *testing.T) {
	m := testMatrix(t)
	res, err := Run(Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.TwoSided, Matrix: m, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	per, _ := remoteIncoming(m, 4)
	want := 0
	for _, e := range per {
		want += len(e)
	}
	if res.Comm.Messages != want {
		t.Fatalf("messages = %d, want %d (one per remote edge)", res.Comm.Messages, want)
	}
	if res.Comm.MinBytes < 8 || res.Comm.MaxBytes > int64(8*maxSnodeSize(m)) {
		t.Fatalf("message sizes [%d, %d] outside supernode range", res.Comm.MinBytes, res.Comm.MaxBytes)
	}
}

func TestOneSidedSlowerThanTwoSided(t *testing.T) {
	// Fig 8 / §III-B: one-sided SpTRSV is slower due to 4x MPI ops.
	m := testMatrix(t)
	for _, p := range []int{4, 16} {
		two, err := Run(Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.TwoSided, Matrix: m, Ranks: p})
		if err != nil {
			t.Fatal(err)
		}
		one, err := Run(Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.OneSided, Matrix: m, Ranks: p})
		if err != nil {
			t.Fatal(err)
		}
		if one.Elapsed <= two.Elapsed {
			t.Fatalf("P=%d: one-sided (%v) should be slower than two-sided (%v)",
				p, one.Elapsed, two.Elapsed)
		}
	}
}

func TestPollingCostMatters(t *testing.T) {
	// Ablation: zeroing the Listing-1 scan cost must speed up the
	// one-sided solve (DESIGN.md ablation #2).
	m := testMatrix(t)
	withPoll, err := Run(Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.OneSided, Matrix: m, Ranks: 16})
	if err != nil {
		t.Fatal(err)
	}
	freePoll, err := Run(Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.OneSided, Matrix: m, Ranks: 16, PollCheck: -1})
	if err != nil {
		t.Fatal(err)
	}
	if freePoll.Elapsed >= withPoll.Elapsed {
		t.Fatalf("free polling (%v) should beat charged polling (%v)", freePoll.Elapsed, withPoll.Elapsed)
	}
}

func TestPerlmutterGPUBeatsSummitGPU(t *testing.T) {
	// Fig 8: at 4 GPUs, Perlmutter (NVLink3) clearly beats Summit
	// (NVLink2 + dumbbell) for the latency-bound solve.
	m := testMatrix(t)
	pm, err := Run(Config{Machine: mc(t, "perlmutter-gpu"), Transport: comm.Shmem, Matrix: m, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := Run(Config{Machine: mc(t, "summit-gpu"), Transport: comm.Shmem, Matrix: m, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	verify(t, m, sm.X)
	if sm.Elapsed <= pm.Elapsed {
		t.Fatalf("Summit GPU (%v) should be slower than Perlmutter GPU (%v)", sm.Elapsed, pm.Elapsed)
	}
}

func TestDeterministicSolveTime(t *testing.T) {
	m := testMatrix(t)
	a, err := Run(Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.TwoSided, Matrix: m, Ranks: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.TwoSided, Matrix: m, Ranks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed {
		t.Fatalf("nondeterministic: %v vs %v", a.Elapsed, b.Elapsed)
	}
}

func TestNotifiedAccessSolveCorrect(t *testing.T) {
	m := testMatrix(t)
	for _, p := range []int{2, 8} {
		res, err := Run(Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.Notified, Matrix: m, Ranks: p})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		verify(t, m, res.X)
	}
}

func TestNotifiedBeatsTwoSided(t *testing.T) {
	// The paper's §V inference, quantified: hardware put-with-signal
	// makes one-sided SpTRSV beat two-sided (Liu et al. report 1.5x
	// with foMPI). Our notified transport has lower per-op overhead
	// and a single flight per message.
	m := testMatrix(t)
	for _, p := range []int{8, 16} {
		two, err := Run(Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.TwoSided, Matrix: m, Ranks: p})
		if err != nil {
			t.Fatal(err)
		}
		ntf, err := Run(Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.Notified, Matrix: m, Ranks: p})
		if err != nil {
			t.Fatal(err)
		}
		one, err := Run(Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.OneSided, Matrix: m, Ranks: p})
		if err != nil {
			t.Fatal(err)
		}
		if ntf.Elapsed >= two.Elapsed {
			t.Fatalf("P=%d: notified (%v) should beat two-sided (%v)", p, ntf.Elapsed, two.Elapsed)
		}
		if ntf.Elapsed >= one.Elapsed {
			t.Fatalf("P=%d: notified (%v) should crush the 4-op protocol (%v)", p, ntf.Elapsed, one.Elapsed)
		}
		ratio := float64(two.Elapsed) / float64(ntf.Elapsed)
		if ratio < 1.05 || ratio > 3 {
			t.Fatalf("P=%d: notified speedup over two-sided = %.2fx, want ~1.5x band", p, ratio)
		}
	}
}

func TestTrafficMatrixPopulated(t *testing.T) {
	m := testMatrix(t)
	res, err := Run(Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.TwoSided, Matrix: m, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Matrix()
	if tm == nil || tm.Ranks != 4 {
		t.Fatal("traffic matrix missing")
	}
	var total int64
	for s := 0; s < 4; s++ {
		for d := 0; d < 4; d++ {
			total += tm.At(s, d).Messages
			if s == d && tm.At(s, d).Messages != 0 {
				t.Fatal("self traffic recorded for block-cyclic SpTRSV")
			}
		}
	}
	if int(total) != res.Comm.Messages {
		t.Fatalf("matrix counts %d messages, summary says %d", total, res.Comm.Messages)
	}
	if tm.Imbalance() < 1 {
		t.Fatalf("imbalance = %v, must be >= 1", tm.Imbalance())
	}
}
