package netsim_test

import (
	"fmt"
	"testing"

	"msgroofline/internal/machine"
	"msgroofline/internal/netsim"
	"msgroofline/internal/sim"
)

// TestDetourLegsMatchConcatenatedPaths drives one fixed sequence of
// adaptive transfers over sampled dragonfly-1k node pairs, with faults
// on, through two copies of the fabric: Route.Transfer, which keeps
// each detour as its two shared legs, and a reference that prices and
// sends each detour as one concatenated Path. Every delivery time, the
// pick and fault counters and the per-class link stats must match.
func TestDetourLegsMatchConcatenatedPaths(t *testing.T) {
	cfg, err := machine.Get("dragonfly-1k")
	if err != nil {
		t.Fatal(err)
	}
	fabric := func() *netsim.Network {
		inst, err := cfg.Instantiate(1)
		if err != nil {
			t.Fatal(err)
		}
		if inst.Net.RoutingPolicy() != netsim.RouteAdaptive {
			t.Fatal("dragonfly-1k does not route adaptively")
		}
		inst.Net.SetFaults(&netsim.Faults{Seed: 11, DropProb: 0.05, SpikeProb: 0.1, MaxSpike: 500 * sim.Nanosecond})
		return inst.Net
	}
	legs, ref := fabric(), fabric()
	pairs := samplePairs(legs.Nodes(), 512)
	refAlts := map[[2]string][]*netsim.Path{}
	sizes := []int64{8, 4096, 65536, 1 << 20}
	for i := 0; i < 6000; i++ {
		p := pairs[i%len(pairs)]
		at := sim.Time(i) * 20 * sim.Nanosecond
		bytes, ch := sizes[i%len(sizes)], i%3
		r, err := legs.RouteTo(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		rr, err := ref.RouteTo(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		alts, ok := refAlts[p]
		if !ok {
			alts = rr.Alts()
			refAlts[p] = alts
		}
		got := r.Transfer(at, bytes, ch)
		if want := netsim.RefTransfer(rr, alts, at, bytes, ch); got != want {
			t.Fatalf("transfer %d (%s -> %s, %d B): delivered at %v, reference %v", i, p[0], p[1], bytes, got, want)
		}
	}
	gotMin, gotAlt := legs.RoutingStats()
	wantMin, wantAlt := ref.RoutingStats()
	if gotMin != wantMin || gotAlt != wantAlt {
		t.Fatalf("picks %d minimal / %d detour, reference %d / %d", gotMin, gotAlt, wantMin, wantAlt)
	}
	if gotAlt == 0 || gotMin == 0 {
		t.Fatalf("picks %d minimal / %d detour: the sequence must exercise both", gotMin, gotAlt)
	}
	if got, want := legs.FaultStats(), ref.FaultStats(); got != want || got.Drops == 0 {
		t.Fatalf("fault stats %+v, reference %+v (drops must occur)", got, want)
	}
	if got, want := fmt.Sprint(legs.ClassStatsAll()), fmt.Sprint(ref.ClassStatsAll()); got != want {
		t.Fatalf("class stats %s, reference %s", got, want)
	}
}
