package netsim

import (
	"testing"

	"msgroofline/internal/sim"
)

// diamond builds a-b joined directly (1 hop) and via a 2-hop detour
// through c, with a detour registered. Adaptive routing can then
// choose per message between the short congested path and the longer
// idle one.
func diamond(routing Routing) *Network {
	n := New()
	n.AddLink("a", "b", 1e9, 100*sim.Nanosecond, 1)
	n.AddLink("a", "c", 1e9, 100*sim.Nanosecond, 1)
	n.AddLink("c", "b", 1e9, 100*sim.Nanosecond, 1)
	n.SetRouting(routing)
	n.AddDetour("c")
	return n
}

func TestRouteMinimalDegeneratesToPath(t *testing.T) {
	// Under RouteMinimal the Route must time transfers byte-for-byte
	// like the minimal Path, even with detours registered.
	nr := diamond(RouteMinimal)
	np := diamond(RouteMinimal)
	r, err := nr.RouteTo("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Alts()) != 0 {
		t.Fatalf("minimal routing built %d alts", len(r.Alts()))
	}
	p := mustRoute(t, np, "a", "b").Min()
	for i := 0; i < 5; i++ {
		at := sim.Time(i) * 10 * sim.Nanosecond
		if got, want := r.Transfer(at, 1000, 0), p.Transfer(at, 1000, 0); got != want {
			t.Fatalf("transfer %d: route %v != path %v", i, got, want)
		}
	}
	if min, alt := nr.RoutingStats(); min != 0 || alt != 0 {
		t.Fatalf("minimal policy should never tally picks: %d/%d", min, alt)
	}
}

func TestAdaptiveIdleTakesMinimal(t *testing.T) {
	n := diamond(RouteAdaptive)
	r, err := n.RouteTo("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Alts()) != 1 {
		t.Fatalf("alts = %d, want 1 (via c)", len(r.Alts()))
	}
	// Idle fabric: the minimal path wins the tiebreak and timing
	// matches plain minimal routing.
	ref := diamond(RouteMinimal)
	p := mustRoute(t, ref, "a", "b").Min()
	if got, want := r.Transfer(0, 1000, 0), p.Transfer(0, 1000, 0); got != want {
		t.Fatalf("idle adaptive transfer = %v, want minimal %v", got, want)
	}
	if min, alt := n.RoutingStats(); min != 1 || alt != 0 {
		t.Fatalf("picks = %d/%d, want 1 minimal, 0 alt", min, alt)
	}
}

func TestAdaptiveDivertsUnderCongestion(t *testing.T) {
	n := diamond(RouteAdaptive)
	// Congest the direct a-b link: book it far into the future.
	r := mustRoute(t, n, "a", "b")
	for i := 0; i < 10; i++ {
		r.TransferMinimal(0, 100000, 0)
	}
	got := r.Transfer(0, 1000, 0)
	// The 2-hop detour is idle: 2 x (1 us serialization + 100 ns).
	want := 2 * (sim.Microsecond + 100*sim.Nanosecond)
	if got != want {
		t.Fatalf("congested transfer = %v, want detour %v", got, want)
	}
	if _, alt := n.RoutingStats(); alt != 1 {
		t.Fatalf("altPicks = %d, want 1", alt)
	}
	// Reset clears the pick counters with the rest of the state.
	n.Reset()
	if min, alt := n.RoutingStats(); min != 0 || alt != 0 {
		t.Fatalf("post-reset picks = %d/%d", min, alt)
	}
}

func TestAdaptiveDeterminism(t *testing.T) {
	// The same injection sequence on two identical fabrics must make
	// identical choices and produce identical times.
	run := func() []sim.Time {
		n := diamond(RouteAdaptive)
		r, _ := n.RouteTo("a", "b")
		var out []sim.Time
		for i := 0; i < 20; i++ {
			out = append(out, r.Transfer(sim.Time(i%3)*sim.Nanosecond, 50000, 0))
		}
		min, alt := n.RoutingStats()
		out = append(out, sim.Time(min), sim.Time(alt))
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v != %v", i, a[i], b[i])
		}
	}
}

func TestRouteAltsSkipDegenerateDetours(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1e9, 10, 1)
	n.AddLink("c", "a", 1e9, 10, 1)
	n.SetRouting(RouteAdaptive)
	n.AddDetour("a")     // endpoint: skipped
	n.AddDetour("b")     // endpoint: skipped
	n.AddDetour("c")     // leaf: skipped
	n.AddDetour("ghost") // not in fabric: skipped
	r, err := n.RouteTo("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Alts()) != 0 {
		t.Fatalf("degenerate detours produced %d alts", len(r.Alts()))
	}
	// Packet transfers always ride minimal, even under adaptive.
	if got := r.TransferPacket(0, 5*sim.Nanosecond, 0); got <= 0 {
		t.Fatalf("packet transfer = %v", got)
	}
}

func TestClassStatsAll(t *testing.T) {
	n := New()
	n.AddClassLink("a", "b", "global", 1e9, 0, 1)
	n.AddClassLink("b", "c", "local", 1e9, 0, 2)
	n.AddClassLink("c", "d", "global", 2e9, 0, 1) // idle, same class as a-b
	mustRoute(t, n, "a", "b").Transfer(0, 1000, 0)
	cs := n.ClassStatsAll()
	if len(cs) != 2 || cs[0].Class != "global" || cs[1].Class != "local" {
		t.Fatalf("classes = %+v", cs)
	}
	g := cs[0]
	// Two undirected global links = 4 directed; the idle c-d pair must
	// still count toward the denominator.
	if g.Links != 4 || g.Messages != 1 || g.Bytes != 1000 {
		t.Fatalf("global stats = %+v", g)
	}
	if g.BusyTime != sim.Microsecond {
		t.Fatalf("global busy = %v, want 1us", g.BusyTime)
	}
	// Mean utilization: 1 us busy over 4 links x 1 us horizon.
	if u := g.MeanUtilization(sim.Microsecond); u != 0.25 {
		t.Fatalf("global mean utilization = %v, want 0.25", u)
	}
	if u := g.MeanUtilization(0); u != 0 {
		t.Fatalf("zero-horizon utilization = %v", u)
	}
	if cs[1].Messages != 0 || cs[1].Links != 4 {
		t.Fatalf("local stats = %+v", cs[1])
	}
	// Link Class accessor and Stats plumbing.
	found := false
	for _, ls := range n.Stats() {
		if ls.Name == "a->b#0" {
			found = true
			if ls.Class != "global" {
				t.Fatalf("link stats class = %q, want global", ls.Class)
			}
		}
	}
	if !found {
		t.Fatal("a->b#0 missing from Stats()")
	}
}
