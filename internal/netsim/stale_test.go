package netsim

import (
	"fmt"
	"testing"

	"msgroofline/internal/sim"
)

// TestAddLinkMidRunInvalidatesPaths mutates the topology after routes
// have been resolved and traffic sent: the path cache and the BFS
// trees must be dropped (new lookups see the shorter route, and every
// route and adaptive alternative matches a fresh reference BFS), and
// Paths held across the mutation must keep working on their old
// links. Leaf e gains a second link, so it stops attaching at c.
func TestAddLinkMidRunInvalidatesPaths(t *testing.T) {
	n := New()
	n.AddLink("a", "c", 1e9, 100*sim.Nanosecond, 1)
	n.AddLink("c", "b", 1e9, 100*sim.Nanosecond, 1)
	n.AddLink("a", "d", 1e9, 100*sim.Nanosecond, 1)
	n.AddLink("d", "b", 1e9, 100*sim.Nanosecond, 1)
	n.AddLink("e", "c", 1e9, 100*sim.Nanosecond, 1)
	n.SetRouting(RouteAdaptive)
	n.AddDetour("d")
	// Before the new cable a -> b has no detour (via d ties the
	// minimal 2 hops); after it, via d is a 2-hop alternative.
	matchRef := func(stage string, wantAlts int) {
		t.Helper()
		for _, p := range [][2]string{{"a", "b"}, {"b", "a"}, {"c", "b"}, {"c", "d"}, {"e", "b"}, {"d", "e"}} {
			r, err := n.RouteTo(p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			alts := make([][]string, len(r.Alts()))
			for i, a := range r.Alts() {
				alts[i] = HopNames(n, p[0], a)
			}
			min, _ := RefMin(n, p[0], p[1])
			got := fmt.Sprint(HopNames(n, p[0], r.Min()), alts)
			if want := fmt.Sprint(min, RefAlts(n, p[0], p[1])); got != want {
				t.Fatalf("%s: %s -> %s route %s, reference %s", stage, p[0], p[1], got, want)
			}
			if p == [2]string{"a", "b"} && len(alts) != wantAlts {
				t.Fatalf("%s: a -> b has %d alternatives, want %d", stage, len(alts), wantAlts)
			}
		}
	}
	matchRef("before AddLink", 0)
	if h := n.Hops("e", "b"); h != 2 {
		t.Fatalf("e->b hops = %d, want 2 via c", h)
	}
	if _, err := n.Transfer(0, "e", "b", 4096, 0); err != nil {
		t.Fatal(err)
	}

	old, err := n.PathTo("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if old.Hops() != 2 {
		t.Fatalf("a->b hops = %d, want 2 via c", old.Hops())
	}
	if again, _ := n.PathTo("a", "b"); again != old {
		t.Fatal("repeat lookup did not hit the cache")
	}
	// First send over the cached route.
	slow := old.Transfer(0, 4096, 0)

	// Topology grows mid-run: a direct a-b cable appears.
	n.AddLink("a", "b", 1e9, 100*sim.Nanosecond, 1)
	n.AddLink("e", "b", 1e9, 100*sim.Nanosecond, 1)
	fresh, err := n.PathTo("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if fresh == old {
		t.Fatal("AddLink did not invalidate the path cache")
	}
	if fresh.Hops() != 1 {
		t.Fatalf("a->b hops after AddLink = %d, want 1", fresh.Hops())
	}
	matchRef("after AddLink", 1)
	if h := n.Hops("e", "b"); h != 1 {
		t.Fatalf("e->b hops after AddLink = %d, want 1", h)
	}
	if fresh.BaseLatency() >= old.BaseLatency() {
		t.Fatalf("direct route latency %v not below relayed %v",
			fresh.BaseLatency(), old.BaseLatency())
	}
	// The new route's links start idle: a same-size transfer cannot be
	// slower than the relayed one was, and the held handle keeps
	// working (it still owns its old links).
	if fast := fresh.Transfer(0, 4096, 0); fast > slow {
		t.Fatalf("direct transfer finished at %v, relayed at %v", fast, slow)
	}
	_ = old.Transfer(0, 64, 0)
}
