package netsim_test

import (
	"testing"

	"msgroofline/internal/machine"
	"msgroofline/internal/netsim"
	"msgroofline/internal/sim"
)

// TestRouteStatePerRouterPair resolves every node pair of
// dragonfly-1k, whose 256 compute nodes hang off 64 routers: the cache
// must hold at most one core route per router pair, not one per node
// pair. A warmed lookup and transfer must not allocate.
func TestRouteStatePerRouterPair(t *testing.T) {
	cfg, err := machine.Get("dragonfly-1k")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := cfg.Instantiate(1)
	if err != nil {
		t.Fatal(err)
	}
	n := inst.Net
	nodes := int32(len(n.Nodes()))
	for si := int32(0); si < nodes; si++ {
		for di := int32(0); di < nodes; di++ {
			if _, err := n.RouteAt(si, di); err != nil {
				t.Fatal(err)
			}
		}
	}
	d := cfg.Topology.Dragonfly
	routers := d.Groups * d.RoutersPerGroup
	if got := netsim.CachedRoutes(n); got > routers*routers {
		t.Fatalf("%d cached routes for %d nodes on %d routers, want at most %d", got, nodes, routers, routers*routers)
	}
	si, di := n.NodeIndex("df:g0r0n0"), n.NodeIndex("df:g5r3n1")
	var at sim.Time
	allocs := testing.AllocsPerRun(100, func() {
		r, err := n.RouteAt(si, di)
		if err != nil {
			t.Fatal(err)
		}
		at = r.Transfer(at, 4096, 0)
	})
	if allocs != 0 {
		t.Fatalf("RouteAt + Transfer allocated %v times per call", allocs)
	}
}
