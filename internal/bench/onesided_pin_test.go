package bench

import (
	"testing"

	"msgroofline/internal/machine"
	"msgroofline/internal/runtime"
	"msgroofline/internal/sim"
)

// TestOneSidedSweepMatchesParent pins the one-sided sweep kernels'
// timing and event digest, windowed and strict, at a single message,
// a small-message flood, a mid-size flood and the top of the sweep,
// plus the one-sided CAS round trip, on two CPU machines. The values
// were recorded when the kernels ran on internal/mpi's own windows,
// before they moved onto the shmem PGAS core's one-sided issue path;
// the move left every one of them unchanged.
func TestOneSidedSweepMatchesParent(t *testing.T) {
	type pin struct {
		n       int
		b       int64
		elapsed sim.Time
		digest  uint64
	}
	for _, m := range []struct {
		cfg              *machine.Config
		windowed, strict []pin
		cas              sim.Time
	}{
		{machine.PerlmutterCPU, []pin{
			{1, 8, 2490251, 0x92189c8fe8015f64},
			{64, 8, 10050251, 0xea67ae8bab932815},
			{64, 64 << 10, 133547877, 0xe377e37dac405008},
			{1024, 1 << 20, 33557149797, 0x25526a52efe96845},
		}, []pin{
			{1, 8, 4860502, 0x563c5253ab7b7cfd},
			{64, 8, 311072128, 0x2c7c93d3f87d12d1},
			{64, 64 << 10, 442128128, 0x3c0b2b9838344e51},
			{1024, 1 << 20, 38531330048, 0xd18b09ea7c2d62d1},
		}, 1930000},
		{machine.SummitCPU, []pin{
			{1, 8, 4250308, 0x286af114310b390f},
			{64, 8, 117650308, 0x10f956b307cbe099},
			{64, 64 << 10, 165138828, 0xb00ddae39660d070},
			{1024, 1 << 20, 41301878412, 0xfec5ec95a7771460},
		}, []pin{
			{1, 8, 6700616, 0x0e1dad729a630896},
			{64, 8, 428839424, 0xb829b3858097f079},
			{64, 64 << 10, 590139136, 0xa5d750d53d4fe579},
			{1024, 1 << 20, 48158878720, 0x55e8f04925d8ccf9},
		}, 3450000},
	} {
		for _, tc := range []struct {
			tr   Transport
			pins []pin
		}{{OneSided, m.windowed}, {OneSidedStrict, m.strict}} {
			for _, p := range tc.pins {
				got, digest, err := measureWith(m.cfg, tc.tr, 2, p.n, p.b, 1, runtime.Blank)
				if err != nil {
					t.Fatal(err)
				}
				if got.Elapsed != p.elapsed || digest != p.digest {
					t.Errorf("%s %s n=%d B=%d: elapsed %d ps, digest %#016x; want %d ps, %#016x",
						m.cfg.Name, tc.tr, p.n, p.b, int64(got.Elapsed), digest, int64(p.elapsed), p.digest)
				}
			}
		}
		cas, err := OneSidedCASLatency(m.cfg, 2, 1, 32)
		if err != nil {
			t.Fatal(err)
		}
		if cas != m.cas {
			t.Errorf("%s one-sided CAS: %d ps, want %d ps", m.cfg.Name, int64(cas), int64(m.cas))
		}
	}
}
