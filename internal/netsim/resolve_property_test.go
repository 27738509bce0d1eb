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
func routeNames(n *netsim.Network, src string, r *netsim.Route) string {
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
type fabric struct {
	name  string
	build func() (*netsim.Network, error)
}

// catalogFabrics returns every catalog machine's fabric.
func catalogFabrics() []fabric {
	var out []fabric
	for _, cfg := range machine.All() {
		cfg := cfg
		out = append(out, fabric{cfg.Name, func() (*netsim.Network, error) {
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
	{"parallel-links", func() (*netsim.Network, error) {
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
	{"leaf-ties", func() (*netsim.Network, error) {
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
	const sample = 96
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
			pairs := samplePairs(ref.Nodes(), sample)
			want := make([]string, len(pairs))
			for i, p := range pairs {
				min, ok := netsim.RefMin(ref, p[0], p[1])
				if !ok {
					t.Fatalf("%s -> %s unreachable", p[0], p[1])
				}
				want[i] = fmt.Sprint(min, netsim.RefAlts(ref, p[0], p[1]))
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
			if _, err := n.PathTo(p[0], p[1]); err == nil || err.Error() != want {
				t.Errorf("PathTo(%s, %s) error %v, want %q", p[0], p[1], err, want)
			}
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
