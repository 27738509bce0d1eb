package bench

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"msgroofline/internal/machine"
	"msgroofline/internal/runtime"
)

// TestOneSidedSweepMatchesParent pins the one-sided sweep kernels'
// timing and event digest, windowed and strict, at a single message,
// a small-message flood, a mid-size flood and the top of the sweep,
// plus the one-sided CAS round trip, on two CPU machines. The values
// were recorded when the kernels ran on internal/mpi's own windows,
// before they moved onto the shmem PGAS core's one-sided issue path;
// the move left every one of them unchanged. They are results/pins.txt's
// sweep/... and cas/... lines. The test also fails on such a line that
// it does not run, and prints every differing line as it now reads, in
// one block, ready to paste into the ledger when a change moves pins on
// purpose.
func TestOneSidedSweepMatchesParent(t *testing.T) {
	b, err := os.ReadFile("../../results/pins.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) > 0 && (strings.HasPrefix(f[0], "sweep/") || strings.HasPrefix(f[0], "cas/")) {
			want[f[0]] = strings.Join(f, " ")
		}
	}
	var block []string
	check := func(got string) {
		name, _, _ := strings.Cut(got, " ")
		if got != want[name] {
			block = append(block, got)
		}
		delete(want, name)
	}
	for _, m := range []*machine.Config{machine.PerlmutterCPU, machine.SummitCPU} {
		for _, tr := range []Transport{OneSided, OneSidedStrict} {
			for _, p := range [][2]int{{1, 8}, {64, 8}, {64, 64 << 10}, {1024, 1 << 20}} {
				got, digest, err := measureWith(m, tr, 2, p[0], int64(p[1]), 1, runtime.Blank)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("sweep/%s/%s/n%d-b%d %d - %016x", m.Name, tr, p[0], p[1], int64(got.Elapsed), digest))
			}
		}
		cas, err := OneSidedCASLatency(m, 2, 1, 32)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("cas/%s/one-sided %d - -", m.Name, int64(cas)))
	}
	for name := range want {
		t.Errorf("results/pins.txt: line %q names no run", name)
	}
	if len(block) > 0 {
		t.Errorf("%d run(s) differ from results/pins.txt; their lines now read:\n%s", len(block), strings.Join(block, "\n"))
	}
}
