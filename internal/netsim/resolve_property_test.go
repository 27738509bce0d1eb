package netsim_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"msgroofline/internal/machine"
	"msgroofline/internal/netsim"
)

// routeNames renders a resolved route from src as hop names: the
// minimal path, then each adaptive alternative in order.
func routeNames(n *netsim.Network, src string, r netsim.Route) string {
	alts := make([][]string, len(r.Alts()))
	for i, a := range r.Alts() {
		alts[i] = netsim.HopNames(n, src, a)
	}
	return fmt.Sprint(netsim.HopNames(n, src, r.Min()), alts)
}

// samplePairs returns every ordered node pair of a small fabric, or k
// pairs drawn from a fixed-seed stream on a large one (self pairs
// included either way).
func samplePairs(nodes []string, k int) [][2]string {
	var pairs [][2]string
	if len(nodes)*len(nodes) <= k {
		for _, a := range nodes {
			for _, b := range nodes {
				pairs = append(pairs, [2]string{a, b})
			}
		}
		return pairs
	}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() string {
		x = x*6364136223846793005 + 1442695040888963407
		return nodes[(x>>33)%uint64(len(nodes))]
	}
	for len(pairs) < k {
		a := next()
		b := a
		if len(pairs)%16 != 0 {
			b = next()
		}
		pairs = append(pairs, [2]string{a, b})
	}
	return pairs
}

// resolveAll resolves every pair on n and renders each route. With
// one worker it walks the pairs forward; with more, the workers share
// n and walk them backward, interleaved. A resolution that never ends
// (one looping on a corrupt predecessor chain) fails after the
// deadline.
func resolveAll(n *netsim.Network, pairs [][2]string, workers int, deadline time.Duration) ([]string, error) {
	got := make([]string, len(pairs))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(pairs); k += workers {
				i := k
				if workers > 1 {
					i = len(pairs) - 1 - k
				}
				r, err := n.RouteTo(pairs[i][0], pairs[i][1])
				if err != nil {
					errs[w] = err
					return
				}
				got[i] = routeNames(n, pairs[i][0], r)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(deadline):
		return nil, fmt.Errorf("resolution still running after %v", deadline)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return got, nil
}

// fabric names a network builder; each call returns a fresh network.
// pairs, when set, replaces the default sample size; detoured names a
// pair whose reference route must carry detours.
type fabric struct {
	name     string
	build    func() (*netsim.Network, error)
	pairs    int
	detoured [2]string
}

// catalogFabrics returns every catalog machine's fabric.
func catalogFabrics() []fabric {
	var out []fabric
	for _, cfg := range machine.All() {
		cfg := cfg
		out = append(out, fabric{name: cfg.Name, build: func() (*netsim.Network, error) {
			inst, err := cfg.Instantiate(1)
			if err != nil {
				return nil, err
			}
			return inst.Net, nil
		}})
	}
	return out
}

// handFabrics are small adaptive graphs with shapes the catalog lacks.
var handFabrics = []fabric{
	// a and b are joined by two AddLink calls. BFS marks each with
	// the first group, so both directions must take it, never the
	// second.
	{name: "parallel-links", build: func() (*netsim.Network, error) {
		n := netsim.New()
		n.AddLink("a", "b", 1e9, 100, 1)
		n.AddLink("b", "c", 1e9, 100, 1)
		n.AddLink("a", "b", 2e9, 100, 2)
		n.AddLink("c", "a", 1e9, 100, 1)
		n.AddLink("c", "d", 1e9, 100, 1)
		n.SetRouting(netsim.RouteAdaptive)
		n.AddDetour("c")
		n.AddDetour("b")
		return n, nil
	}},
	// Leaves l (linked first) and m (linked last) hang off hubs whose
	// two-hop routes tie: h reaches d through y or x, and the edge
	// order at h, not the node order (x joins the fabric before y),
	// must break the tie.
	{name: "leaf-ties", build: func() (*netsim.Network, error) {
		n := netsim.New()
		n.AddLink("l", "h", 1e9, 100, 1)
		n.AddLink("x", "d", 1e9, 100, 1)
		n.AddLink("h", "y", 1e9, 100, 1)
		n.AddLink("y", "d", 1e9, 100, 1)
		n.AddLink("h", "x", 1e9, 100, 1)
		n.AddLink("d", "e", 1e9, 100, 1)
		n.AddLink("e", "h", 1e9, 100, 1)
		n.AddLink("d", "m", 1e9, 100, 1)
		n.SetRouting(netsim.RouteAdaptive)
		n.AddDetour("x")
		n.AddDetour("y")
		n.AddDetour("e")
		return n, nil
	}},
	// Leaves l and m share router r0, so their routes compose over the
	// core route from r0 to itself, whose detours they must keep. Leaf
	// x on r1 is a registered detour, which no route takes. Node e is
	// multi-homed (on r1 and r3), so it attaches at itself. The pairs
	// cover a leaf to its own router and back, leaf to leaf across
	// routers, and leaf to and from e.
	{name: "leaves", detoured: [2]string{"l", "m"}, build: func() (*netsim.Network, error) {
		n := netsim.New()
		n.AddLink("r0", "r1", 1e9, 100, 1)
		n.AddLink("r1", "r2", 1e9, 100, 1)
		n.AddLink("r2", "r0", 1e9, 100, 1)
		n.AddLink("r2", "r3", 1e9, 100, 1)
		n.AddLink("l", "r0", 1e9, 100, 1)
		n.AddLink("r0", "m", 1e9, 100, 2)
		n.AddLink("x", "r1", 1e9, 100, 1)
		n.AddLink("e", "r3", 1e9, 100, 1)
		n.AddLink("r1", "e", 1e9, 100, 1)
		n.SetRouting(netsim.RouteAdaptive)
		n.AddDetour("r1")
		n.AddDetour("x")
		n.AddDetour("r2")
		n.AddDetour("r3")
		return n, nil
	}},
	// Two leaves joined by one link: each is the other's attachment,
	// and both are registered detours.
	{name: "leaf-pair", build: func() (*netsim.Network, error) {
		n := netsim.New()
		n.AddLink("a", "b", 1e9, 100, 1)
		n.SetRouting(netsim.RouteAdaptive)
		n.AddDetour("a")
		n.AddDetour("b")
		return n, nil
	}},
	// The 102400-rank dragonfly of the Ridgeline scale sweeps, sampled:
	// the reference BFS takes about a third of a second per pair here.
	{name: "dragonfly-102400", pairs: 4, build: func() (*netsim.Network, error) {
		d := machine.DragonflyForRanks(102400)
		topo := machine.Topology{Dragonfly: &d, Routing: machine.RoutingAdaptive}
		n, _, err := topo.Build(1)
		return n, err
	}},
}

// TestRouteResolutionMatchesReferenceBFS resolves node pairs on every
// catalog fabric and on hand-built ones, in two orders — forward on
// one goroutine, backward from 4 goroutines sharing the network — and
// checks each route's hops and adaptive alternative set against a
// reference BFS that stops at the destination and allocates fresh
// slices per call. Resolution reads shared per-source trees built
// concurrently, so a tree that disagrees with the walk it replaces, or
// one a racing builder corrupts, shows up as a route that differs from
// the reference.
func TestRouteResolutionMatchesReferenceBFS(t *testing.T) {
	for _, f := range append(catalogFabrics(), handFabrics...) {
		t.Run(f.name, func(t *testing.T) {
			fresh := func() *netsim.Network {
				n, err := f.build()
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
			ref := fresh()
			sample := 96
			if f.pairs > 0 {
				sample = f.pairs
			}
			pairs := samplePairs(ref.Nodes(), sample)
			want := make([]string, len(pairs))
			for i, p := range pairs {
				min, ok := netsim.RefMin(ref, p[0], p[1])
				if !ok {
					t.Fatalf("%s -> %s unreachable", p[0], p[1])
				}
				want[i] = fmt.Sprint(min, netsim.RefAlts(ref, p[0], p[1]))
			}
			if p := f.detoured; p != [2]string{} && len(netsim.RefAlts(ref, p[0], p[1])) == 0 {
				t.Fatalf("%s -> %s has no detours", p[0], p[1])
			}
			for _, workers := range []int{1, 4} {
				got, err := resolveAll(fresh(), pairs, workers, time.Minute)
				if err != nil {
					t.Fatalf("%d workers: %v", workers, err)
				}
				for i, p := range pairs {
					if got[i] != want[i] {
						t.Fatalf("%d workers, %s -> %s: route %s, reference %s", workers, p[0], p[1], got[i], want[i])
					}
				}
			}
		})
	}
	t.Run("unreachable", func(t *testing.T) {
		// A triangle a-b-c with leaf l, and a separate pair u-v; the
		// detour u is unreachable from the triangle.
		n := netsim.New()
		n.AddLink("a", "b", 1e9, 100, 1)
		n.AddLink("b", "c", 1e9, 100, 1)
		n.AddLink("c", "a", 1e9, 100, 1)
		n.AddLink("l", "a", 1e9, 100, 1)
		n.AddLink("u", "v", 1e9, 100, 1)
		n.SetRouting(netsim.RouteAdaptive)
		n.AddDetour("u")
		n.AddDetour("b")
		for _, p := range [][2]string{{"a", "u"}, {"l", "v"}, {"u", "l"}, {"v", "c"}} {
			want := fmt.Sprintf("netsim: no route from %q to %q", p[0], p[1])
			if _, err := n.RouteTo(p[0], p[1]); err == nil || err.Error() != want {
				t.Errorf("RouteTo(%s, %s) error %v, want %q", p[0], p[1], err, want)
			}
		}
		for _, p := range [][2]string{{"l", "c"}, {"c", "l"}, {"a", "c"}} {
			r, err := n.RouteTo(p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			min, _ := netsim.RefMin(n, p[0], p[1])
			if got, want := routeNames(n, p[0], r), fmt.Sprint(min, netsim.RefAlts(n, p[0], p[1])); got != want {
				t.Errorf("%s -> %s: route %s, reference %s", p[0], p[1], got, want)
			}
		}
	})
}
