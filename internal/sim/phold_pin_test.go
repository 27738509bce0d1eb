//go:build !race

package sim_test

import (
	"testing"

	"msgroofline/internal/sim/simbench"
)

// TestCoupledWindowsPhold100KPin runs the phold-100k benchmark storm
// (100000 single-rank groups, a 2000000-hop budget, seed 1) at one and
// two workers and pins its event count and digest, the values the
// benchmark checks every unit against. It is left out of race builds,
// where the 2 million events take minutes.
func TestCoupledWindowsPhold100KPin(t *testing.T) {
	if testing.Short() {
		t.Skip("2 million events")
	}
	const wantDigest, wantEvents = 0xbd261820cba6311a, 2050000
	for _, workers := range []int{1, 2} {
		ce := simbench.CoupledWindows(100000, workers, 2000000, 1)
		if ce.Digest() != wantDigest || ce.Executed() != wantEvents {
			t.Fatalf("workers=%d: (digest,events)=(%016x,%d), want (%016x,%d)",
				workers, ce.Digest(), ce.Executed(), uint64(wantDigest), wantEvents)
		}
	}
}
