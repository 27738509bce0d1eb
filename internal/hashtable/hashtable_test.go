package hashtable

import (
	"testing"

	"msgroofline/internal/comm"
	"msgroofline/internal/machine"
)

func mc(t *testing.T, name string) *machine.Config {
	t.Helper()
	c, err := machine.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// withTransport fills the machine/transport pair into a shared config.
func withTransport(c Config, m *machine.Config, kind comm.Kind) Config {
	c.Machine = m
	c.Transport = kind
	return c
}

func TestConfigValidation(t *testing.T) {
	pm := mc(t, "perlmutter-cpu")
	bad := []Config{
		{Ranks: 0, TotalInserts: 10},
		{Ranks: 2, TotalInserts: 0},
		{Ranks: 2, TotalInserts: 10, Blocks: -1},
	}
	for _, c := range bad {
		if _, err := Run(withTransport(c, pm, comm.OneSided)); err == nil {
			t.Fatalf("config %+v should fail", c)
		}
	}
}

func TestKeysUniqueNonzero(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 100000; i++ {
		k := keyFor(i)
		if k == 0 {
			t.Fatal("zero key")
		}
		if seen[k] {
			t.Fatalf("duplicate key at %d", i)
		}
		seen[k] = true
	}
}

func TestGeometry(t *testing.T) {
	cfg := Config{Ranks: 4, TotalInserts: 1000}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	g := newGeometry(&cfg)
	if g.perRank != 250 {
		t.Fatalf("perRank = %d", g.perRank)
	}
	if g.capacity < 2000 {
		t.Fatalf("capacity = %d, want >= 2x inserts", g.capacity)
	}
	// home always in range.
	for i := 0; i < 5000; i++ {
		r, s := g.home(keyFor(i))
		if r < 0 || r >= g.ranks || s < 0 || s >= g.slots {
			t.Fatalf("home out of range: (%d, %d)", r, s)
		}
	}
}

func TestOneSidedCorrectness(t *testing.T) {
	// Run verifies the table internally; also check counters.
	res, err := Run(Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.OneSided, Ranks: 8, TotalInserts: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Atomics < 2000 {
		t.Fatalf("atomics = %d, want >= one per insert", res.Atomics)
	}
	if res.Collisions == 0 {
		t.Fatal("expected some collisions at load factor 0.5")
	}
	if res.GUPS <= 0 || res.UpdatesPerSec <= 0 {
		t.Fatalf("rates = %v / %v", res.GUPS, res.UpdatesPerSec)
	}
}

func TestTwoSidedCorrectness(t *testing.T) {
	res, err := Run(Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.TwoSided, Ranks: 4, TotalInserts: 400})
	if err != nil {
		t.Fatal(err)
	}
	// Broadcast protocol: each insert round sends P-1 messages per
	// rank: total = perRank * P * (P-1).
	g := newGeometry(&Config{Ranks: 4, TotalInserts: 400, Blocks: 8})
	want := g.perRank * 4 * 3
	if res.Comm.Messages != want {
		t.Fatalf("messages = %d, want %d", res.Comm.Messages, want)
	}
	// Table II: msg/sync = P (each round is a sync).
	if res.Comm.MsgsPerSync < 2.9 || res.Comm.MsgsPerSync > 3.1 {
		t.Fatalf("msg/sync = %.2f, want P-1 = 3", res.Comm.MsgsPerSync)
	}
	// Triplets are 3 words.
	if res.Comm.MeanBytes != 24 {
		t.Fatalf("message size = %v, want 24 B", res.Comm.MeanBytes)
	}
}

func TestGPUCorrectness(t *testing.T) {
	res, err := Run(Config{Machine: mc(t, "perlmutter-gpu"), Transport: comm.Shmem, Ranks: 4, TotalInserts: 1000, Blocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Atomics < 1000 {
		t.Fatalf("atomics = %d", res.Atomics)
	}
	if _, err := Run(Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.Shmem, Ranks: 2, TotalInserts: 10}); err == nil {
		t.Fatal("GPU run on CPU machine should fail")
	}
}

func TestSingleRankDegenerate(t *testing.T) {
	if _, err := Run(Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.OneSided, Ranks: 1, TotalInserts: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{Machine: mc(t, "perlmutter-cpu"), Transport: comm.TwoSided, Ranks: 1, TotalInserts: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTwoSidedWinsAtTwoRanks(t *testing.T) {
	// §III-C: at P=2 the two-sided (1.1us per insert) beats the
	// one-sided CAS (2us).
	cfg := Config{Ranks: 2, TotalInserts: 500}
	two, err := Run(withTransport(cfg, mc(t, "perlmutter-cpu"), comm.TwoSided))
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(withTransport(cfg, mc(t, "perlmutter-cpu"), comm.OneSided))
	if err != nil {
		t.Fatal(err)
	}
	if two.Elapsed >= one.Elapsed {
		t.Fatalf("P=2: two-sided (%v) should beat one-sided (%v)", two.Elapsed, one.Elapsed)
	}
}

func TestOneSidedWinsAtScale(t *testing.T) {
	// Fig 9: at high rank counts the one-sided table is several
	// times faster (5x at 128 in the paper; the broadcast protocol's
	// P messages/insert is the mechanism).
	cfg := Config{Ranks: 64, TotalInserts: 4096}
	two, err := Run(withTransport(cfg, mc(t, "perlmutter-cpu"), comm.TwoSided))
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(withTransport(cfg, mc(t, "perlmutter-cpu"), comm.OneSided))
	if err != nil {
		t.Fatal(err)
	}
	if one.Elapsed >= two.Elapsed {
		t.Fatalf("P=64: one-sided (%v) should beat two-sided (%v)", one.Elapsed, two.Elapsed)
	}
	ratio := float64(two.Elapsed) / float64(one.Elapsed)
	if ratio < 2.5 {
		t.Fatalf("P=64 one-sided speedup = %.1fx, want several-fold", ratio)
	}
}

func TestSummitGPUSocketCrossingHurts(t *testing.T) {
	// Fig 9: Summit stops scaling past 3 GPUs — cross-socket atomics
	// pay 1.6us and saturate the shared X-Bus, so doubling the GPUs
	// does not reduce (and typically increases) the total time.
	three, err := Run(Config{Machine: mc(t, "summit-gpu"), Transport: comm.Shmem, Ranks: 3, TotalInserts: 1200, Blocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	six, err := Run(Config{Machine: mc(t, "summit-gpu"), Transport: comm.Shmem, Ranks: 6, TotalInserts: 1200, Blocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if six.Elapsed < three.Elapsed {
		t.Fatalf("3 GPUs %v -> 6 GPUs %v: dumbbell topology should stop the scaling", three.Elapsed, six.Elapsed)
	}
	// Perlmutter's fully connected NVLink3 keeps scaling 1 -> 4.
	pm1, err := Run(Config{Machine: mc(t, "perlmutter-gpu"), Transport: comm.Shmem, Ranks: 1, TotalInserts: 1200, Blocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	pm4, err := Run(Config{Machine: mc(t, "perlmutter-gpu"), Transport: comm.Shmem, Ranks: 4, TotalInserts: 1200, Blocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if pm4.Elapsed >= pm1.Elapsed {
		t.Fatalf("Perlmutter GPU 1 (%v) -> 4 (%v) should scale", pm1.Elapsed, pm4.Elapsed)
	}
}

func TestPerlmutterGPUFasterThanSummitGPU(t *testing.T) {
	// §III-C: Perlmutter CAS 0.8us vs Summit 1us in-island.
	pm, err := Run(Config{Machine: mc(t, "perlmutter-gpu"), Transport: comm.Shmem, Ranks: 3, TotalInserts: 900, Blocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := Run(Config{Machine: mc(t, "summit-gpu"), Transport: comm.Shmem, Ranks: 3, TotalInserts: 900, Blocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if pm.Elapsed >= sm.Elapsed {
		t.Fatalf("Perlmutter GPU (%v) should beat Summit GPU (%v)", pm.Elapsed, sm.Elapsed)
	}
}

func TestTripletRoundTrip(t *testing.T) {
	id, elem, pos := decodeTriplet(encodeTriplet(7, 0xDEADBEEF, 12345))
	if id != 7 || elem != 0xDEADBEEF || pos != 12345 {
		t.Fatalf("round trip = (%d, %#x, %d)", id, elem, pos)
	}
}
