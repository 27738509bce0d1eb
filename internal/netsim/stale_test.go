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
// Paths held across the mutation must report Stale so long-lived
// holders can re-resolve.
func TestAddLinkMidRunInvalidatesPaths(t *testing.T) {
	n := New()
	n.AddLink("a", "c", 1e9, 100*sim.Nanosecond, 1)
	n.AddLink("c", "b", 1e9, 100*sim.Nanosecond, 1)
	n.AddLink("a", "d", 1e9, 100*sim.Nanosecond, 1)
	n.AddLink("d", "b", 1e9, 100*sim.Nanosecond, 1)
	n.SetRouting(RouteAdaptive)
	n.AddDetour("d")
	// Before the new cable a -> b has no detour (via d ties the
	// minimal 2 hops); after it, via d is a 2-hop alternative.
	matchRef := func(stage string, wantAlts int) {
		t.Helper()
		for _, p := range [][2]string{{"a", "b"}, {"b", "a"}, {"c", "b"}, {"c", "d"}} {
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

	old, err := n.PathTo("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if old.Hops() != 2 {
		t.Fatalf("a->b hops = %d, want 2 via c", old.Hops())
	}
	if old.Stale() {
		t.Fatal("fresh path reports stale")
	}
	if again, _ := n.PathTo("a", "b"); again != old {
		t.Fatal("repeat lookup did not hit the cache")
	}
	// First send over the cached route.
	slow := old.Transfer(0, 4096, 0)

	// Topology grows mid-run: a direct a-b cable appears.
	n.AddLink("a", "b", 1e9, 100*sim.Nanosecond, 1)
	if !old.Stale() {
		t.Fatal("held path does not report staleness after AddLink")
	}
	fresh, err := n.PathTo("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if fresh == old {
		t.Fatal("AddLink did not invalidate the path cache")
	}
	if fresh.Stale() {
		t.Fatal("re-resolved path reports stale")
	}
	if fresh.Hops() != 1 {
		t.Fatalf("a->b hops after AddLink = %d, want 1", fresh.Hops())
	}
	matchRef("after AddLink", 1)
	if fresh.BaseLatency() >= old.BaseLatency() {
		t.Fatalf("direct route latency %v not below relayed %v",
			fresh.BaseLatency(), old.BaseLatency())
	}
	// The new route's links start idle: a same-size transfer cannot be
	// slower than the relayed one was, and the stale handle keeps
	// working (it still owns its old links) for callers that ignore
	// the staleness signal.
	if fast := fresh.Transfer(0, 4096, 0); fast > slow {
		t.Fatalf("direct transfer finished at %v, relayed at %v", fast, slow)
	}
	_ = old.Transfer(0, 64, 0)
}
