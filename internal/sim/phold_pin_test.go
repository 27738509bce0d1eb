//go:build !race

package sim_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"msgroofline/internal/sim/simbench"
)

// TestCoupledWindowsPhold100KPin runs the phold-100k benchmark storm
// (100000 single-rank groups, a 2000000-hop budget, seed 1) at one and
// two workers and pins its event count and digest, the values the
// benchmark checks every unit against: results/pins.txt's phold-100k
// line, which the root TestBenchmarkPinsMatchLedger checks against the
// benchmark. It is left out of race builds, where the 2 million events
// take minutes.
func TestCoupledWindowsPhold100KPin(t *testing.T) {
	if testing.Short() {
		t.Skip("2 million events")
	}
	b, err := os.ReadFile("../../results/pins.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := ""
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) > 0 && f[0] == "phold-100k" {
			want = strings.Join(f, " ")
		}
	}
	for _, workers := range []int{1, 2} {
		ce := simbench.CoupledWindows(100000, workers, 2000000, 1)
		if got := fmt.Sprintf("phold-100k - %d %016x", ce.Executed(), ce.Digest()); got != want {
			t.Fatalf("workers=%d: results/pins.txt has %q, the run gives %q", workers, want, got)
		}
	}
}
